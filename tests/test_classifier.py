"""Tests for the multinomial logistic regression classifier."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cicle import classifier
from cicle.classifier import (
    LogisticModel,
    TrainConfig,
    nll_and_grad,
    predict_proba,
    train,
)
from cicle.corpus import LabeledText, LabelSpace
from cicle.pipeline import CellResources, classify_base
from cicle.vectorize import encode, fit_tfidf, stack, transform_many

from conftest import make_items, space_for


def row(entries):
    """A (columns, values) row from {index: value} pairs, l2-normalized."""
    indices = np.array(sorted(entries), dtype=np.int32)
    values = np.array([entries[i] for i in sorted(entries)], dtype=float)
    norm = math.sqrt(float(values @ values))
    if norm:
        values = values / norm
    return indices, values


def vec(dim, *rows):
    """A CSR matrix with one row per {index: value} dict."""
    return stack([row(entries) for entries in rows], dim)


def binary_space():
    return LabelSpace.from_labels(["no", "yes"])


def fitted_toy(n=80, n_classes=3, seed=0, overlap=0.0, **train_kw):
    items = make_items(n, n_classes=n_classes, seed=seed, overlap=overlap)
    space = space_for(items)
    texts = encode([it.text for it in items])
    tfidf = fit_tfidf(texts)
    X = transform_many(tfidf, texts)
    y = [space.position(it.label) for it in items]
    model = train(X, y, space, TrainConfig(**train_kw))
    return items, space, tfidf, X, y, model


@pytest.mark.parametrize("kwargs", [
    {"C": 0.0},
    {"C": -1.0},
    {"C": float("nan")},
    {"C": float("inf")},
])
def test_train_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        TrainConfig(**kwargs)


def test_train_config_defaults():
    config = TrainConfig()
    assert config.C == 1.0
    assert classifier.TOL == 1e-4
    assert classifier.MAX_ITER == 1000


def test_zero_model_is_uniform():
    model = LogisticModel(W=np.zeros((4, 3)), b=np.zeros(4))
    [probs] = predict_proba(model, vec(3, {0: 1.0}))
    assert probs == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-12)


def test_bias_only_softmax_hand_case():
    # b = (ln 2, 0) on an empty vector gives exactly (2/3, 1/3)
    model = LogisticModel(W=np.zeros((2, 5)), b=np.array([math.log(2.0), 0.0]))
    [probs] = predict_proba(model, vec(5, {}))
    assert probs[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert probs[1] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_logit_shift_invariance():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    x = vec(4, {1: 0.6, 3: 0.8})
    [base] = predict_proba(LogisticModel(W=W, b=b), x)
    [shifted] = predict_proba(LogisticModel(W=W, b=b + 17.5), x)
    assert shifted == pytest.approx(base, abs=1e-12)


def predict(model, X):
    return [int(np.argmax(p)) for p in predict_proba(model, X)]


def test_predict_tie_goes_to_lowest_index():
    # the base strategy's label is the argmax; a tie goes to the lowest class index
    space = LabelSpace.from_labels(["a", "b", "c"])
    model = LogisticModel(W=np.zeros((3, 2)), b=np.zeros(3))
    res = CellResources(label_space=space, test=[], task="text classification")
    [probs] = predict_proba(model, vec(2, {0: 1.0}))
    record = classify_base(res, LabeledText(id="q", text="q", label="c"), probs)
    assert record.final_label == 0


def test_probabilities_sum_to_one():
    _, _, _, X, _, model = fitted_toy()
    P = predict_proba(model, X)
    assert P.shape == (X.shape[0], 3)
    assert np.all(P >= 0)
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-9


def test_separable_training_recovers_labels():
    X = vec(4, {0: 1.0}, {2: 1.0})
    model = train(X, [0, 1], binary_space(), TrainConfig(C=10.0))
    assert predict(model, X) == [0, 1]
    P = predict_proba(model, X)
    assert P[0, 0] > 0.7
    assert P[1, 1] > 0.7


def test_training_fits_easy_corpus():
    items, space, tfidf, X, y, model = fitted_toy(n=120, n_classes=4)
    assert model.converged
    preds = predict(model, transform_many(tfidf, encode([it.text for it in items])))
    accuracy = sum(p == t for p, t in zip(preds, y)) / len(y)
    assert accuracy > 0.95


def test_training_is_deterministic():
    _, _, _, X, y, _ = fitted_toy(n=60)
    space = LabelSpace.from_labels(["alpha", "bravo", "charlie"])
    m1 = train(X, y, space, TrainConfig())
    m2 = train(X, y, space, TrainConfig())
    assert np.array_equal(m1.W, m2.W)
    assert np.array_equal(m1.b, m2.b)


def test_trained_loss_beats_zero_init():
    _, _, _, X, y, model = fitted_toy(n=60)
    y = np.asarray(y)
    zero_loss, _, _, _ = nll_and_grad(np.zeros_like(model.W), np.zeros_like(model.b),
                                   X.tocsr(), y, 1.0)
    fit_loss, _, _, _ = nll_and_grad(model.W, model.b, X.tocsr(), y, 1.0)
    assert fit_loss < zero_loss


def test_stronger_regularization_shrinks_weights():
    _, _, _, X, y, _ = fitted_toy(n=60)
    space = LabelSpace.from_labels(["alpha", "bravo", "charlie"])
    loose = train(X, y, space, TrainConfig(C=10.0))
    tight = train(X, y, space, TrainConfig(C=0.01))
    assert np.abs(tight.W).sum() < np.abs(loose.W).sum()


def test_single_class_training_rejected():
    with pytest.raises(ValueError, match="single class"):
        train(vec(3, {0: 1.0}, {1: 1.0}), [1, 1], binary_space(), TrainConfig())


def test_non_convergence_is_flagged_and_logged(caplog, monkeypatch):
    _, _, _, X, y, _ = fitted_toy(n=60)
    space = LabelSpace.from_labels(["alpha", "bravo", "charlie"])
    monkeypatch.setattr(classifier, "MAX_ITER", 1)
    with caplog.at_level("WARNING", logger="cicle.classifier"):
        model = train(X, y, space, TrainConfig())
    assert not model.converged
    assert any("did not converge" in rec.message for rec in caplog.records)


def test_non_convergence_logs_stop_reason(caplog, monkeypatch):
    _, _, _, X, y, _ = fitted_toy(n=60)
    space = LabelSpace.from_labels(["alpha", "bravo", "charlie"])
    config = TrainConfig()
    monkeypatch.setattr(classifier, "MAX_ITER", 2)
    with caplog.at_level("WARNING", logger="cicle.classifier"):
        model = train(X, y, space, config)
    [warning] = [rec.message for rec in caplog.records if "did not converge" in rec.message]
    assert "Newton-CG stopped with:" in warning and "Maximum number of iterations" in warning
    # the flag taken from the optimizer's final gradient matches a fresh gradient
    _, dW, db, _ = nll_and_grad(model.W, model.b, X, np.asarray(y), config.C)
    assert model.converged == bool(max(np.abs(dW).max(), np.abs(db).max()) <= classifier.TOL)


def test_converged_reads_the_gradient_at_the_returned_weights(monkeypatch):
    # Newton-CG's own result.jac is the gradient before its last step; at every
    # iteration cap the flag must match a fresh gradient at the returned weights
    _, _, _, X, y, _ = fitted_toy(n=60)
    space = LabelSpace.from_labels(["alpha", "bravo", "charlie"])
    flags = []
    config = TrainConfig()
    for max_iter in range(1, 16):
        monkeypatch.setattr(classifier, "MAX_ITER", max_iter)
        model = train(X, y, space, config)
        _, dW, db, _ = nll_and_grad(model.W, model.b, X, np.asarray(y), config.C)
        assert model.converged == bool(max(np.abs(dW).max(), np.abs(db).max()) <= classifier.TOL)
        flags.append(model.converged)
    assert not flags[0] and flags[-1]


def fd_gradient(W, b, X, y, C, h=1e-5):
    """Central finite differences of the loss over every parameter."""
    K, V = W.shape
    params = np.concatenate([W.ravel(), b])
    grad = np.zeros_like(params)
    for i in range(len(params)):
        up = params.copy()
        down = params.copy()
        up[i] += h
        down[i] -= h
        lu, _, _, _ = nll_and_grad(up[: K * V].reshape(K, V), up[K * V:], X, y, C)
        ld, _, _, _ = nll_and_grad(down[: K * V].reshape(K, V), down[K * V:], X, y, C)
        grad[i] = (lu - ld) / (2 * h)
    return grad[: K * V].reshape(K, V), grad[K * V:]


@pytest.mark.parametrize("seed", range(10))
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(2, 4))
    V = int(rng.integers(3, 6))
    n = int(rng.integers(4, 9))
    rows = []
    for _ in range(n):
        nnz = int(rng.integers(1, V + 1))
        idx = np.sort(rng.choice(V, size=nnz, replace=False)).astype(np.int32)
        vals = rng.normal(size=nnz)
        norm = math.sqrt(float(vals @ vals))
        rows.append((idx, vals / norm))
    X = stack(rows, V)
    y = rng.integers(0, K, size=n)
    W = 0.5 * rng.normal(size=(K, V))
    b = 0.5 * rng.normal(size=K)
    C = float(rng.choice([0.5, 1.0, 2.0]))

    _, dW, db, _ = nll_and_grad(W, b, X, y, C)
    fdW, fdb = fd_gradient(W, b, X, y, C)
    analytic = np.concatenate([dW.ravel(), db])
    numeric = np.concatenate([fdW.ravel(), fdb])
    rel_err = np.abs(analytic - numeric).max() / max(1.0, np.abs(analytic).max())
    assert rel_err < 1e-5


def random_problem(rng):
    """A small random sparse problem: X, y, K, V and C, as in the gradient check."""
    K = int(rng.integers(2, 4))
    V = int(rng.integers(3, 6))
    n = int(rng.integers(4, 9))
    rows = []
    for _ in range(n):
        nnz = int(rng.integers(1, V + 1))
        idx = np.sort(rng.choice(V, size=nnz, replace=False)).astype(np.int32)
        vals = rng.normal(size=nnz)
        rows.append((idx, vals / math.sqrt(float(vals @ vals))))
    y = np.arange(n) % K  # every class present
    return stack(rows, V), rng.permutation(y), K, V, float(rng.choice([0.5, 1.0, 2.0]))


def solver_callables(monkeypatch, X, y, K, C):
    """The objective and hessp that ``train`` hands to scipy's minimize."""
    seen = {}
    real = classifier.minimize

    def spy(fun, x0, **kwargs):
        seen.update(fun=fun, hessp=kwargs["hessp"])
        return real(fun, x0, **kwargs)

    monkeypatch.setattr(classifier, "minimize", spy)
    train(X, y, LabelSpace.from_labels([f"c{i}" for i in range(K)]), TrainConfig(C=C))
    return seen["fun"], seen["hessp"]


@pytest.mark.parametrize("seed", range(10))
def test_hessp_matches_finite_differences_of_the_gradient(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    X, y, K, V, C = random_problem(rng)
    fun, hessp = solver_callables(monkeypatch, X, y, K, C)
    at = 0.5 * rng.normal(size=K * V + K)
    v = rng.normal(size=K * V + K)
    # the objective's latest point is elsewhere; hessp must use the softmax at its own point
    fun(0.5 * rng.normal(size=K * V + K))
    product = hessp(at, v)

    def grad(params):
        _, dW, db, _ = nll_and_grad(params[: K * V].reshape(K, V), params[K * V:], X, y, C)
        return np.concatenate([dW.ravel(), db])

    h = 1e-5
    numeric = (grad(at + h * v) - grad(at - h * v)) / (2 * h)
    assert np.abs(product - numeric).max() / max(1.0, np.abs(numeric).max()) < 1e-6


@st.composite
def training_problems(draw):
    """Sparse problems with at least one empty row and a class that has one row."""
    K = draw(st.integers(2, 5))
    V = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 30))
    rows = [row({})]
    for _ in range(n - 1):
        cols = draw(st.lists(st.integers(0, V - 1), unique=True, max_size=V))  # may be empty
        rows.append(row({c: float(rng.uniform(0.1, 3.0)) for c in cols}))
    # class 0 has exactly one row; the others draw from the remaining classes
    y = [0] + [draw(st.integers(1, K - 1)) for _ in range(n - 1)]
    order = rng.permutation(n)
    C = draw(st.sampled_from([0.01, 1.0, 100.0]))
    return stack([rows[i] for i in order], V), np.asarray(y)[order], K, C


@settings(max_examples=40, deadline=None)
@given(training_problems())
def test_training_reaches_the_gradient_tolerance(problem):
    X, y, K, C = problem
    model = train(X, y, LabelSpace.from_labels([f"c{i}" for i in range(K)]), TrainConfig(C=C))
    _, dW, db, _ = nll_and_grad(model.W, model.b, X, y, C)
    assert max(np.abs(dW).max(), np.abs(db).max()) <= classifier.TOL
    assert model.converged


def test_predict_dimension_mismatch():
    _, _, _, _, _, model = fitted_toy(n=40)
    with pytest.raises(ValueError, match="dimension"):
        predict_proba(model, vec(model.W.shape[1] + 3, {0: 1.0}))


# -- the per-row contract that keeps record bytes stable -------------------


def reference_proba(model, X):
    """Every row's probabilities through a dense softmax(X W^T + b)."""
    Z = X.toarray() @ model.W.T + model.b
    P = np.exp(Z - Z.max(axis=1, keepdims=True))
    return P / P.sum(axis=1, keepdims=True)


@st.composite
def models_and_matrices(draw):
    K = draw(st.integers(2, 5))
    V = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    W = scale * rng.normal(size=(K, V))
    b = scale * rng.normal(size=K)
    rows = []
    for _ in range(draw(st.integers(1, 25))):
        if rows and draw(st.booleans()):
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])  # a duplicate row
            continue
        cols = draw(st.lists(st.integers(0, V - 1), unique=True, max_size=V))  # may be empty
        rows.append(row({c: float(rng.uniform(0.1, 3.0)) for c in cols}))
    model = LogisticModel(W=W, b=b)
    return model, rows, stack(rows, V)


@settings(max_examples=200, deadline=None)
@given(models_and_matrices())
def test_predict_proba_rows_are_computed_on_their_own(case):
    model, _, X = case
    P = predict_proba(model, X)
    assert P.shape == (X.shape[0], len(model.b))
    assert P == pytest.approx(reference_proba(model, X), abs=1e-12)
    # conformal calibration takes the scores 1 - p as lying in [0, 1], unclipped
    assert ((1.0 - P) >= 0).all() and ((1.0 - P) <= 1).all()
    for i in range(X.shape[0]):
        assert P[i].tobytes() == predict_proba(model, X[[i]])[0].tobytes()


# -- the solver's BLAS threads ------------------------------------------------

# Fits a problem whose K*V+K parameters are past OpenBLAS's 10,000-entry split
# of a dot product, and prints the sha256 of the weights.
WEIGHTS_CHILD = """
import hashlib
import numpy as np
import scipy.sparse as sp
from cicle.classifier import TrainConfig, train
from cicle.corpus import LabelSpace

n, V, K = 600, 2500, 6
rng = np.random.default_rng(7)
y = np.arange(n) % K
cols = np.concatenate([rng.choice(V, size=20, replace=False) for _ in range(n)])
# every fourth entry falls in its row's class band of 400 columns
cols[::4] = (y.repeat(5) * 400 + cols[::4] % 400) % V
X = sp.csr_matrix((rng.uniform(0.1, 1.0, size=n * 20), (np.arange(n).repeat(20), cols)),
                  shape=(n, V))
model = train(X, y, LabelSpace.from_labels([str(k) for k in range(K)]), TrainConfig())
print(hashlib.sha256(model.W.tobytes() + model.b.tobytes()).hexdigest())
"""


def test_weights_do_not_depend_on_the_blas_thread_count():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs for a second BLAS thread")
    if not classifier._openblas_thread_controls():
        pytest.skip("numpy's BLAS is not an OpenBLAS this process can find")
    src = str(Path(classifier.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", WEIGHTS_CHILD], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.append(done.stdout.strip())
    assert digests[0] == digests[1]


@pytest.mark.parametrize("solver_raises", [False, True])
def test_train_leaves_each_openblas_thread_count_as_it_found_it(monkeypatch, solver_raises):
    controls = classifier._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy's BLAS is not an OpenBLAS this process can find")
    _, _, _, X, y, _ = fitted_toy(n=60)
    space = LabelSpace.from_labels(["alpha", "bravo", "charlie"])
    solve = classifier.minimize
    during = []

    def spy(*args, **kwargs):
        during.append([get() for get, _ in controls])
        if solver_raises:
            raise RuntimeError("solver failed")
        return solve(*args, **kwargs)

    monkeypatch.setattr(classifier, "minimize", spy)
    found = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(2)
        before = [get() for get, _ in controls]
        if solver_raises:
            with pytest.raises(RuntimeError, match="solver failed"):
                train(X, y, space, TrainConfig())
        else:
            train(X, y, space, TrainConfig())
        assert during == [[1] * len(controls)]
        assert [get() for get, _ in controls] == before
    finally:
        for (_, set_), n in zip(controls, found):
            set_(n)
