"""Tests for metrics, aggregation and report emission."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cicle.conformal import ConformalSet
from cicle.evalreport import (
    REGIME_BOUNDS,
    CellMetrics,
    build_report,
    cell_metrics,
    emit_report,
    macro_f1,
    mean_macro_f1,
    reduction_stats,
    regimes_for,
)
from cicle.pipeline import PredictionRecord
from cicle.prompting import PromptStats


def rec(gold, final, strategy="base", **kw):
    return PredictionRecord(item_id=kw.pop("item_id", "x"), strategy=strategy,
                            gold_label=gold, final_label=final, **kw)


def test_macro_f1_hand_case():
    # class 0: tp=1 fp=1 fn=1 -> f1=0.5; class 1 symmetric -> macro 0.5
    assert macro_f1([0, 1, 0, 1], [0, 0, 1, 1], 2) == 0.5


def test_macro_f1_perfect_and_zero():
    assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0
    assert macro_f1([None, None], [0, 1], 2) == 0.0


def test_macro_f1_invalid_counts_as_false_negative():
    # class 0: tp=1 fn=1 -> 2/3; class 1: tp=1 -> 1.0; macro 5/6
    assert macro_f1([0, None, 1], [0, 0, 1], 2) == pytest.approx(5 / 6)


def test_macro_f1_averages_over_gold_classes_only():
    # class 2 never appears in golds, so a stray prediction into it only
    # hurts via the miss on class 0
    assert macro_f1([0, 2], [0, 0], 3) == pytest.approx(2 / 3)


def test_macro_f1_relabel_invariance():
    golds = [0, 1, 2, 1, 0, 2, 2]
    preds = [0, 2, 2, 1, 1, 2, 0]
    swapped = {0: 2, 1: 0, 2: 1}
    assert macro_f1(preds, golds, 3) == pytest.approx(
        macro_f1([swapped[p] for p in preds], [swapped[g] for g in golds], 3))


def brute_force_macro_f1(preds, golds, n):
    scores = []
    for c in sorted(set(golds)):
        tp = sum(1 for p, g in zip(preds, golds) if p == c and g == c)
        predicted = sum(1 for p in preds if p == c)
        actual = sum(1 for g in golds if g == c)
        precision = tp / predicted if predicted else 0.0
        recall = tp / actual if actual else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        scores.append(f1)
    return sum(scores) / len(scores)


@st.composite
def label_vectors(draw):
    """(predictions, golds, class count): predictions may be None, and any class
    may be absent from either side."""
    n = draw(st.integers(1, 6))
    classes = st.integers(0, n - 1)
    golds = draw(st.lists(classes, min_size=1, max_size=50))
    preds = draw(st.lists(st.none() | classes, min_size=len(golds), max_size=len(golds)))
    return preds, golds, n


@settings(max_examples=300, deadline=None)
@given(label_vectors())
def test_macro_f1_matches_brute_force_on_any_labels(case):
    preds, golds, n = case
    assert macro_f1(preds, golds, n) == pytest.approx(
        brute_force_macro_f1(preds, golds, n), abs=1e-12)


def test_macro_f1_errors():
    with pytest.raises(ValueError, match="gold"):
        macro_f1([0], [5], 2)
    with pytest.raises(ValueError, match="predicted"):
        macro_f1([5], [0], 2)


def stats(tokens, shots, candidates=2):
    return PromptStats(token_count=tokens, shot_count=shots, candidate_count=candidates)


def test_cell_metrics_promptless_records_count_zero():
    records = [
        rec(0, 0, strategy="cicle", bypassed=True,
            conformal_set=ConformalSet(candidates=[(0, 0.9)])),
        rec(1, 1, strategy="cicle", prompt_stats=stats(10, 4),
            conformal_set=ConformalSet(candidates=[(1, 0.5), (0, 0.4)])),
    ]
    m = cell_metrics(records, 2)
    assert m.mean_token_count == 5.0
    assert m.mean_shot_count == 2.0
    assert m.bypass_rate == 0.5
    assert m.invalid_rate == 0.0
    assert m.empirical_coverage == 1.0
    assert m.n_records == 2


def test_cell_metrics_coverage_counts_gold_membership():
    records = [
        rec(0, 0, strategy="cicle", conformal_set=ConformalSet(candidates=[(0, 0.9)])),
        rec(1, 0, strategy="cicle", conformal_set=ConformalSet(candidates=[(0, 0.6)])),
        rec(0, None, strategy="cicle",
            conformal_set=ConformalSet(candidates=[(0, 0.5), (1, 0.4)])),
        rec(1, 1, strategy="cicle",
            conformal_set=ConformalSet(candidates=[(1, 0.5), (0, 0.4)])),
    ]
    m = cell_metrics(records, 2)
    assert m.empirical_coverage == 0.75
    assert m.invalid_rate == 0.25


def test_cell_metrics_no_conformal_sets_means_no_coverage():
    m = cell_metrics([rec(0, 0), rec(1, 0)], 2)
    assert m.empirical_coverage is None
    assert m.macro_f1 == pytest.approx(1 / 3)


def test_cell_metrics_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        cell_metrics([], 2)


def metrics(f1=0.5, tokens=0.0, shots=0.0):
    return CellMetrics(macro_f1=f1, mean_token_count=tokens, mean_shot_count=shots,
                       bypass_rate=0.0, invalid_rate=0.0, empirical_coverage=None,
                       n_records=10)


def metrics_of(cells, n_classes=2):
    return {key: cell_metrics(records, n_classes) for key, records in cells.items()}


def test_aggregate_all_sizes_means_per_strategy():
    # macro-F1 is 1.0 for an all-correct cell and 0.0 for an all-wrong one
    right, wrong = [rec(0, 0), rec(1, 1)], [rec(0, 1), rec(1, 0)]
    cells = {("d", 100, "base"): right, ("d", 200, "base"): wrong,
             ("d", 100, "cicle"): right, ("d", 200, "cicle"): right}
    report = build_report(metrics_of(cells))
    assert report.aggregates == {("d", "base"): 0.5, ("d", "cicle"): 1.0}


def test_regime_aggregate_means_across_datasets():
    # float addition is not associative: summing dataset-major fixes the report's bytes
    values = {("a", 100): 0.5, ("a", 200): 0.45, ("b", 100): 0.65, ("b", 200): 0.79}
    per_cell = {(d, size, "base"): metrics(v) for (d, size), v in values.items()}
    expected = (((0.5 + 0.45) + 0.65) + 0.79) / 4
    assert expected != (((0.5 + 0.65) + 0.45) + 0.79) / 4
    assert mean_macro_f1(per_cell, ["a", "b"], [100, 200], "base") == expected


def test_regimes_for_default_ladder():
    sizes = [100, 200, 300, 400, 500, 1000, 2000, 3000, 4000, 5000]
    assert regimes_for(sizes) == {
        "low": [100, 200, 300, 400],
        "medium": [500, 1000, 2000],
        "large": [3000, 4000, 5000],
    }


def test_regimes_for_drops_empty_bands():
    assert regimes_for([100, 300]) == {"low": [100, 300]}
    assert set(REGIME_BOUNDS) == {"low", "medium", "large"}


def test_reduction_stats_hand_case():
    # baseline means 110 and 90 average to 100; conformal at 75 saves 25%
    cicle_cells = [metrics(tokens=70.0, shots=3.0), metrics(tokens=80.0, shots=3.0)]
    baselines = {
        "fewshot-random": [metrics(tokens=110.0, shots=8.0)],
        "fewshot-sparse": [metrics(tokens=90.0, shots=8.0)],
    }
    out = reduction_stats(cicle_cells, baselines)
    assert out["prompt_reduction_pct"] == pytest.approx(25.0)
    assert out["shot_reduction_pct"] == pytest.approx(100.0 * (1 - 3.0 / 8.0))


def test_reduction_stats_equal_means_zero():
    out = reduction_stats([metrics(tokens=50.0, shots=4.0)],
                          {"fewshot-random": [metrics(tokens=50.0, shots=4.0)]})
    assert out == {"prompt_reduction_pct": 0.0, "shot_reduction_pct": 0.0}


def test_reduction_stats_can_go_negative():
    out = reduction_stats([metrics(tokens=120.0, shots=9.0)],
                          {"fewshot-random": [metrics(tokens=100.0, shots=8.0)]})
    assert out["prompt_reduction_pct"] == pytest.approx(-20.0)


def test_reduction_stats_errors():
    with pytest.raises(ValueError, match="zero"):
        reduction_stats([metrics(tokens=10.0)], {"fewshot-random": [metrics(tokens=0.0)]})


def synthetic_cells():
    cells = {}
    for dataset in ("alpha", "beta"):
        for size in (100, 500):
            cells[(dataset, size, "base")] = [rec(0, 0), rec(1, 1), rec(1, 0)]
            cells[(dataset, size, "fewshot-random")] = [
                rec(0, 0, strategy="fewshot-random", prompt_stats=stats(40, 4)),
                rec(1, 1, strategy="fewshot-random", prompt_stats=stats(44, 4)),
                rec(1, None, strategy="fewshot-random", prompt_stats=stats(42, 4)),
            ]
            cells[(dataset, size, "cicle")] = [
                rec(0, 0, strategy="cicle", bypassed=True,
                    conformal_set=ConformalSet(candidates=[(0, 0.9)])),
                rec(1, 1, strategy="cicle", prompt_stats=stats(21, 2),
                    conformal_set=ConformalSet(candidates=[(1, 0.5), (0, 0.4)])),
                rec(1, 1, strategy="cicle", prompt_stats=stats(24, 2),
                    conformal_set=ConformalSet(candidates=[(1, 0.6), (0, 0.3)])),
            ]
    return cells


def test_build_report_sections():
    report = build_report(metrics_of(synthetic_cells()))
    assert len(report.per_cell) == 12
    assert report.per_cell[("alpha", 100, "cicle")].bypass_rate == pytest.approx(1 / 3)
    assert set(report.aggregates) == {(d, s) for d in ("alpha", "beta")
                                      for s in ("base", "fewshot-random", "cicle")}
    assert set(report.regimes) == {(r, s) for r in ("low", "medium")
                                   for s in ("base", "fewshot-random", "cicle")}
    assert set(report.reductions) == {"alpha", "beta"}
    expected_prompt = 100.0 * (1 - 15.0 / 42.0)
    assert report.reductions["alpha"]["prompt_reduction_pct"] == pytest.approx(expected_prompt)


def test_build_report_without_cicle_has_no_reductions():
    cells = {k: v for k, v in synthetic_cells().items() if k[2] != "cicle"}
    report = build_report(metrics_of(cells))
    assert report.reductions == {}


def test_build_report_drops_uncovered_regimes(caplog):
    # alpha ran sizes {100, 500}, beta ran {100, 1000}: the medium regime
    # spans [500, 1000] but no single dataset covers both, so it is dropped
    base = synthetic_cells()
    cells = {}
    for (dataset, size, strategy), records in base.items():
        if dataset == "beta" and size == 500:
            size = 1000
        cells[(dataset, size, strategy)] = records
    with caplog.at_level("WARNING", logger="cicle.evalreport"):
        report = build_report(metrics_of(cells))
    assert not any(r == "medium" for r, _ in report.regimes)
    assert any(r == "low" for r, _ in report.regimes)
    assert any("medium" in record.message for record in caplog.records)


def test_build_report_requires_cells():
    with pytest.raises(ValueError, match="no cells"):
        build_report({})


def test_emit_report_files_and_determinism(tmp_path):
    report = build_report(metrics_of(synthetic_cells()))
    first = emit_report(report, tmp_path / "r1")
    names = [p.name for p in first]
    assert names == ["report.json", "cells.csv", "curve_alpha.csv", "curve_beta.csv",
                     "aggregates.csv", "regimes.csv", "reductions.csv"]
    emit_report(report, tmp_path / "r2")
    for name in names:
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    payload = json.loads((tmp_path / "r1" / "report.json").read_text("utf-8"))
    assert payload["schema"] == "cicle-report/v1"
    assert payload["per_cell"]["alpha/100/cicle"]["n_records"] == 3

    cells_lines = (tmp_path / "r1" / "cells.csv").read_text("utf-8").splitlines()
    assert cells_lines[0].startswith("dataset,size,strategy,n_records,macro_f1")
    assert len(cells_lines) == 1 + 12

    curve = (tmp_path / "r1" / "curve_alpha.csv").read_text("utf-8").splitlines()
    assert curve[0] == "size,base,fewshot-random,cicle"
    assert curve[1].startswith("100,")
    assert curve[2].startswith("500,")


def test_a_second_report_leaves_no_table_of_the_first(tmp_path):
    emit_report(build_report(metrics_of(synthetic_cells())), tmp_path)
    fewer = {key: records for key, records in synthetic_cells().items()
             if key[0] == "alpha" and key[2] != "fewshot-random"}
    written = emit_report(build_report(metrics_of(fewer)), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in written)
    assert not (tmp_path / "curve_beta.csv").exists()
    assert (tmp_path / "reductions.csv").read_text("utf-8").splitlines() == [
        "dataset,prompt_reduction_pct,shot_reduction_pct"]
