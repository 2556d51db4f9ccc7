"""Tests for split conformal calibration and prediction sets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cicle.classifier import TrainConfig, predict_proba, train
from cicle.conformal import (
    calibrate,
    calibration_from_scores,
    predict_set,
    quantile_rank,
)
from cicle.corpus import stratified_split
from cicle.vectorize import encode, fit_tfidf, transform_many

from conftest import make_items, space_for


@pytest.mark.parametrize("n,alpha,expected", [
    (19, 0.05, 19),
    (3, 0.05, 4),
    (19, 0.999, 1),
    (9, 0.1, 9),
    (99, 0.05, 95),
    (500, 0.05, 476),
])
def test_quantile_rank_hand_cases(n, alpha, expected):
    assert quantile_rank(n, alpha) == expected


def test_quantile_rank_float_noise_does_not_inflate_rank():
    # (9+1)*(1-0.1) evaluates to 9.000000000000002 in floats; the rank must
    # still be 9, not 10.
    assert quantile_rank(9, 0.1) == 9
    for n in range(1, 200):
        for alpha in (0.01, 0.05, 0.1, 0.2, 0.25, 0.5):
            exact = -((n + 1) * (Fraction(1) - Fraction(str(alpha)))) // 1 * -1
            assert quantile_rank(n, alpha) == int(exact)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 3000), st.integers(1, 999))
def test_quantile_rank_matches_exact_rational(n, a):
    assert quantile_rank(n, a / 1000) == math.ceil((n + 1) * (1 - Fraction(a, 1000)))


def test_quantile_rank_monotone_in_alpha():
    alphas = [0.01, 0.05, 0.1, 0.2, 0.5, 0.9]
    ranks = [quantile_rank(50, a) for a in alphas]
    assert ranks == sorted(ranks, reverse=True)


def test_calibration_hand_threshold():
    # 20 scores i/20 for i=0..19; alpha=0.05 gives rank 20, the max score.
    scores = [i / 20 for i in range(20)]
    cal = calibration_from_scores(scores, 0.05)
    assert len(cal.scores) == 20
    assert cal.q_hat == 19 / 20


def test_calibration_rank_exceeding_n_saturates():
    cal = calibration_from_scores([0.1, 0.2, 0.3], 0.05)
    assert cal.q_hat == 1.0


def test_calibration_extreme_alpha_takes_min_score():
    cal = calibration_from_scores([0.4, 0.1, 0.7], 0.999)
    assert cal.q_hat == 0.1


def cal_with_q(q_hat):
    scores = np.array([q_hat])
    return calibration_from_scores(scores, 0.5)


def test_predict_set_orders_by_descending_probability():
    cal = cal_with_q(0.95)
    s = predict_set(cal, [0.2, 0.5, 0.3])
    assert s.classes() == [1, 2, 0]
    assert [p for _, p in s.candidates] == [0.5, 0.3, 0.2]
    assert not s.forced_fallback
    assert len(s) == 3
    assert s.contains(1) and not s.contains(7)


def test_predict_set_threshold_filters_low_probabilities():
    # q_hat = 0.6 admits classes with p >= 0.4
    cal = cal_with_q(0.6)
    s = predict_set(cal, [0.45, 0.4, 0.1, 0.05])
    assert s.classes() == [0, 1]


def test_predict_set_boundary_class_included():
    # 1 - p == q_hat exactly is inside the set
    cal = cal_with_q(0.5)
    s = predict_set(cal, [0.5, 0.5])
    assert s.classes() == [0, 1]


def test_predict_set_ties_break_by_class_index():
    cal = cal_with_q(1.0)
    s = predict_set(cal, [0.25, 0.25, 0.25, 0.25])
    assert s.classes() == [0, 1, 2, 3]


def test_predict_set_forced_fallback_on_empty():
    # q_hat = 0.2 requires p >= 0.8; nothing qualifies, fall back to argmax
    cal = cal_with_q(0.2)
    s = predict_set(cal, [0.5, 0.3, 0.2])
    assert s.forced_fallback
    assert s.candidates == [(0, 0.5)]


def test_predict_set_one_hot_vector():
    cal = cal_with_q(0.05)
    s = predict_set(cal, [0.0, 1.0, 0.0])
    assert s.classes() == [1]
    assert not s.forced_fallback


def test_alpha_nesting_is_exact():
    rng = np.random.default_rng(11)
    scores = rng.uniform(size=100)
    alphas = [0.01, 0.05, 0.1, 0.2]
    cals = [calibration_from_scores(scores, a) for a in alphas]
    for _ in range(200):
        probs = rng.dirichlet(np.ones(6))
        sets = [set(predict_set(c, probs).classes()) for c in cals]
        for tighter, looser in zip(sets[1:], sets):
            assert tighter <= looser


def test_set_is_probability_superlevel_set():
    rng = np.random.default_rng(5)
    cal = calibration_from_scores(rng.uniform(size=40), 0.2)
    for _ in range(50):
        probs = rng.dirichlet(np.ones(5))
        s = predict_set(cal, probs)
        if s.forced_fallback:
            continue
        inside = min(probs[c] for c in s.classes())
        outside = [probs[c] for c in range(5) if not s.contains(c)]
        assert all(inside >= p for p in outside)


def test_marginal_coverage_on_synthetic_scores():
    # Oracle model: scores are 1 - p(true class) for exchangeable draws, so the
    # expected coverage is ceil((n+1)(1-alpha))/(n+1), about 0.9004 here.
    rng = np.random.default_rng(99)
    alpha, n_cal, n_test = 0.1, 500, 2000
    coverages = []
    for _ in range(20):
        cal_scores = rng.uniform(size=n_cal)
        test_scores = rng.uniform(size=n_test)
        cal = calibration_from_scores(cal_scores, alpha)
        coverages.append(float(np.mean(test_scores <= cal.q_hat)))
    mean_cov = float(np.mean(coverages))
    assert 0.89 <= mean_cov <= 0.912


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 500), st.integers(1, 999))
def test_coverage_given_the_calibration_set_is_beta_distributed(n, a):
    # With Uniform(0, 1) scores, a calibration set covers a fresh score with
    # probability q_hat, its r-th order statistic: Beta(r, n + 1 - r) with r the
    # conformal quantile rank (Angelopoulos & Bates, arXiv 2107.07511, 3.2). r is
    # computed exactly here, so a wrong quantile_rank fails this test too.
    alpha = a / 1000
    r = math.ceil((n + 1) * (1 - Fraction(a, 1000)))
    rng = np.random.default_rng(2107)
    splits = 200
    q_hats = np.array([calibration_from_scores(rng.uniform(size=n), alpha).q_hat
                       for _ in range(splits)])
    if r > n:
        assert np.all(q_hats == 1.0)
        return
    mean = r / (n + 1)
    sd = math.sqrt(mean * (1 - mean) / (n + 2) / splits)
    assert abs(q_hats.mean() - mean) <= 5 * sd
    assert stats.kstest(q_hats, stats.beta(r, n + 1 - r).cdf).pvalue > 1e-4


def fitted_model_and_split(overlap=0.6, n=200, seed=3):
    items = make_items(n, n_classes=4, seed=seed, overlap=overlap)
    space = space_for(items)
    split = stratified_split(items, calib_fraction=0.25, seed=seed)
    train_texts = encode([it.text for it in split.train])
    tfidf = fit_tfidf(train_texts)
    X = transform_many(tfidf, train_texts)
    y = [space.position(it.label) for it in split.train]
    model = train(X, y, space, TrainConfig())
    return space, split, tfidf, model


def test_calibrate_scores_match_model_probabilities():
    space, split, tfidf, model = fitted_model_and_split()
    X = transform_many(tfidf, encode([it.text for it in split.calibration]))
    y = [space.position(it.label) for it in split.calibration]
    probs = predict_proba(model, X)
    cal = calibrate(probs, y, 0.1)
    expected = np.sort(1.0 - probs[np.arange(len(y)), y])
    assert cal.scores == pytest.approx(expected, abs=1e-12)
    assert len(cal.scores) == len(y)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
       st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6),
       st.lists(st.integers(1, 999), min_size=2, max_size=2, unique=True))
def test_sets_nest_as_alpha_grows(scores, weights, alphas):
    probs = np.array(weights) / sum(weights)
    small_alpha, large_alpha = sorted(a / 1000 for a in alphas)
    wide = predict_set(calibration_from_scores(scores, small_alpha), probs)
    narrow = predict_set(calibration_from_scores(scores, large_alpha), probs)
    assert set(narrow.classes()) <= set(wide.classes())
