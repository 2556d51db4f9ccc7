import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cicle.selection import sparse_similarities
from cicle.vectorize import encode, fit_tfidf, stack, tokenize, transform, transform_many

from conftest import make_items


def dense(model, text):
    indices, values = transform(model, text)
    out = np.zeros(model.dim)
    out[indices] = values
    return out


def test_tokenize_lowercases_and_drops_single_chars():
    assert tokenize("Hi, a BB ccc_d 9to5!") == ["hi", "bb", "ccc_d", "9to5"]
    assert tokenize("! ?") == []


def test_fit_tfidf_hand_idf():
    model = fit_tfidf(encode(["aa bb", "aa cc"]))
    assert model.vocabulary == {"aa": 0, "bb": 1, "cc": 2}
    assert model.idf[0] == pytest.approx(1.0, abs=1e-12)
    assert model.idf[1] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)
    assert model.idf[2] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)


def test_fit_tfidf_single_document():
    model = fit_tfidf(encode(["aa"]))
    assert model.idf[model.vocabulary["aa"]] == pytest.approx(1.0, abs=1e-12)


def test_fit_tfidf_idf_at_least_one():
    model = fit_tfidf(encode([it.text for it in make_items(50)]))
    assert np.all(model.idf >= 1.0)


def test_fit_tfidf_rejects_tokenless_corpus():
    with pytest.raises(ValueError):
        fit_tfidf(encode([]))
    with pytest.raises(ValueError):
        fit_tfidf(encode(["! ?", "."]))


def test_transform_hand_vector():
    model = fit_tfidf(encode(["aa bb", "aa cc"]))
    vec = dense(model, "aa bb")
    w0, w1 = 1.0, math.log(3 / 2) + 1
    norm = math.hypot(w0, w1)
    assert abs(vec[0] - w0 / norm) < 1e-9
    assert abs(vec[1] - w1 / norm) < 1e-9
    assert vec[2] == 0.0
    assert round(vec[0], 4) == 0.5797 and round(vec[1], 4) == 0.8148


def test_transform_scales_with_counts():
    model = fit_tfidf(encode(["aa bb", "aa cc"]))
    vec = dense(model, "aa bb aa")
    w0, w1 = 2.0, math.log(3 / 2) + 1
    norm = math.hypot(w0, w1)
    assert vec[0] == pytest.approx(w0 / norm, abs=1e-12)
    assert vec[1] == pytest.approx(w1 / norm, abs=1e-12)


def test_transform_unknown_tokens_dropped():
    model = fit_tfidf(encode(["aa bb", "aa cc"]))
    indices, values = transform(model, "zz qq")
    assert len(indices) == 0 and len(values) == 0
    assert indices.dtype == np.int32
    indices, values = transform(model, "aa aa zz")
    assert list(indices) == [0]
    assert values[0] == pytest.approx(1.0, abs=1e-12)


def test_transform_unit_norm_property():
    texts = [it.text for it in make_items(80, overlap=0.4, seed=3)]
    model = fit_tfidf(encode(texts))
    for text in texts:
        indices, values = transform(model, text)
        if len(values):
            assert abs(math.sqrt(float(values @ values)) - 1.0) < 1e-9
        assert list(indices) == sorted(set(indices))


def test_transform_independent_of_corpus_order():
    texts = [it.text for it in make_items(40, seed=9)]
    a = fit_tfidf(encode(texts))
    b = fit_tfidf(encode(list(reversed(texts))))
    assert a.vocabulary == b.vocabulary
    assert np.allclose(a.idf, b.idf)
    assert np.allclose(dense(a, texts[0]), dense(b, texts[0]))


def test_stack_matches_dense_rows():
    texts = [it.text for it in make_items(30)]
    docs = encode(texts)
    model = fit_tfidf(docs)
    matrix = transform_many(model, docs)
    assert matrix.shape == (30, len(model.vocabulary))
    for i, text in enumerate(texts):
        assert np.allclose(matrix[i].toarray().ravel(), dense(model, text))
    assert stack([], 7).shape == (0, 7)


def cosine(a, b, dim_a, dim_b=None):
    """Cosine similarity as shot selection computes it: one pool row, one query."""
    [block] = sparse_similarities(stack([a], dim_a), stack([b], dim_b or dim_a))
    [row] = block
    return float(row[0])


def test_cosine_hand_cases():
    model = fit_tfidf(encode(["aa bb", "cc dd"]))
    a, dim = transform(model, "aa bb"), model.dim
    assert cosine(a, a, dim) == pytest.approx(1.0, abs=1e-12)
    assert cosine(a, transform(model, "cc dd"), dim) == 0.0
    assert cosine(a, transform(model, "aa"), dim) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_cosine_zero_norm_is_zero():
    model = fit_tfidf(encode(["aa bb"]))
    zero, dim = transform(model, "zz"), model.dim
    assert cosine(zero, transform(model, "aa"), dim) == 0.0
    assert cosine(transform(model, "aa"), zero, dim) == 0.0


def test_cosine_errors():
    a = (np.array([0], dtype=np.int32), np.array([1.0]))
    with pytest.raises(ValueError, match="dimension"):
        cosine(a, a, 2, 3)


def test_cosine_symmetry():
    texts = [it.text for it in make_items(20, overlap=0.5, seed=7)]
    model = fit_tfidf(encode(texts))
    vectors = [transform(model, t) for t in texts]
    rng = random.Random(1)
    for _ in range(50):
        a, b = rng.choice(vectors), rng.choice(vectors)
        assert cosine(a, b, model.dim) == pytest.approx(cosine(b, a, model.dim),
                                                       rel=1e-12, abs=1e-15)
        assert -1.0 - 1e-12 <= cosine(a, b, model.dim) <= 1.0 + 1e-12


# words from a small vocabulary, so texts repeat, share words and miss the vocabulary
words = st.sampled_from(["aa", "bb", "cc", "dd", "ee", "Aa", "x", "zz9", "qq_q", "!!"])
texts = st.lists(st.lists(words, max_size=8).map(" ".join), min_size=1, max_size=20)


@settings(max_examples=200, deadline=None)
@given(texts, texts)
def test_transform_many_rows_equal_transform(fit_texts, texts):
    assume(any(tokenize(t) for t in fit_texts))
    model = fit_tfidf(encode(fit_texts))
    matrix = transform_many(model, encode(texts))
    assert matrix.shape == (len(texts), model.dim)
    for i, text in enumerate(texts):
        indices, values = transform(model, text)
        lo, hi = matrix.indptr[i], matrix.indptr[i + 1]
        assert matrix.indices[lo:hi].tolist() == indices.tolist()
        assert matrix.data[lo:hi].tobytes() == values.tobytes()


def reference_fit(corpus):
    """The per-token fit: document frequencies in a Counter, one scalar log per token."""
    df = Counter()
    for text in corpus:
        df.update(set(tokenize(text)))
    vocabulary = {tok: i for i, tok in enumerate(sorted(df))}
    idf = np.empty(len(vocabulary))
    for tok, i in vocabulary.items():
        idf[i] = np.log((1.0 + len(corpus)) / (1.0 + df[tok])) + 1.0
    return vocabulary, idf


# repeated and mixed-case tokens, non-tokens ("x", "!!") and tokenless texts
@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.lists(words, max_size=8).map(" ".join), st.just(""),
                          st.text(max_size=12)), min_size=1, max_size=30))
def test_fit_tfidf_equals_counter_reference(corpus):
    assume(any(tokenize(t) for t in corpus))
    vocabulary, idf = reference_fit(corpus)
    model = fit_tfidf(encode(corpus))
    assert model.vocabulary == vocabulary
    assert list(model.vocabulary) == list(vocabulary)
    assert model.idf.tobytes() == idf.tobytes()


def test_transform_many_takes_rows_of_one_encoding():
    texts = [it.text for it in make_items(60, overlap=0.5, seed=4)]
    cell = encode(texts + ["unseen words only", "! ?"])
    fit_rows = cell.take(range(0, 60, 2))
    model = fit_tfidf(fit_rows)
    assert model.vocabulary == fit_tfidf(encode(texts[0::2])).vocabulary
    matrix = transform_many(model, cell)
    expected = stack([transform(model, t) for t in texts + ["unseen words only", "! ?"]],
                     model.dim)
    assert (matrix != expected).nnz == 0
    assert matrix[60].nnz == 0 and matrix[61].nnz == 0

