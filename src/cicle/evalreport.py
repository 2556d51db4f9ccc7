"""Metrics and reports over prediction records.

Macro-F1 is the unweighted mean of per-class F1 over the classes present in
the gold labels; invalid predictions (None) count against their gold class
and never toward any predicted class. Every report artifact is sorted and
timestamp-free so identical inputs produce identical bytes.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import DataError
from .pipeline import FEWSHOT, STRATEGIES, PredictionRecord
from .serialize import atomic_open, write_json

log = logging.getLogger(__name__)

REPORT_SCHEMA = "cicle-report/v1"

# size bands: low 100-400, medium 500-2000, large 3000-5000
REGIME_BOUNDS = {"low": (1, 400), "medium": (401, 2000), "large": (2001, None)}

CellKey = tuple[str, int, str]


@dataclass(frozen=True)
class CellMetrics:
    macro_f1: float
    mean_token_count: float
    mean_shot_count: float
    bypass_rate: float
    invalid_rate: float
    empirical_coverage: float | None
    n_records: int


@dataclass
class RunReport:
    per_cell: dict[CellKey, CellMetrics]
    aggregates: dict[tuple[str, str], float]
    regimes: dict[tuple[str, str], float]
    reductions: dict[str, dict[str, float]]


def macro_f1(preds: Sequence[int | None], golds: Sequence[int], n_classes: int) -> float:
    """Unweighted mean per-class F1 over the classes present in golds.

    A None prediction is a false negative for its gold class and a positive
    for no class; a class with no true positives scores 0.
    """
    if len(preds) != len(golds):
        raise ValueError(f"{len(preds)} predictions for {len(golds)} golds")
    if not golds:
        raise ValueError("cannot compute macro-F1 on empty input")
    if n_classes < 1:
        raise ValueError(f"class count must be >= 1, got {n_classes}")
    tp = [0] * n_classes
    fp = [0] * n_classes
    fn = [0] * n_classes
    for p, g in zip(preds, golds):
        if not (0 <= g < n_classes):
            raise ValueError(f"gold label {g} outside the {n_classes}-class label space")
        if p is not None and not (0 <= p < n_classes):
            raise ValueError(f"predicted label {p} outside the {n_classes}-class label space")
        if p == g:
            tp[g] += 1
        else:
            fn[g] += 1
            if p is not None:
                fp[p] += 1
    scores = []
    for c in sorted(set(golds)):
        denom = 2 * tp[c] + fp[c] + fn[c]
        scores.append(0.0 if denom == 0 else 2 * tp[c] / denom)
    return sum(scores) / len(scores)


def cell_metrics(records: Sequence[PredictionRecord], n_classes: int) -> CellMetrics:
    """Aggregate one cell's records.

    Records without a prompt (base strategy, conformal bypasses) contribute
    zero tokens and zero shots to the means: that is exactly the saving the
    gating is supposed to buy. Coverage averages over records that carry a
    conformal set and is None when none do.
    """
    if not records:
        raise ValueError("cannot compute metrics for an empty cell")
    n = len(records)
    f1 = macro_f1([r.final_label for r in records], [r.gold_label for r in records], n_classes)
    tokens = sum(r.prompt_stats.token_count for r in records if r.prompt_stats is not None)
    shots = sum(r.prompt_stats.shot_count for r in records if r.prompt_stats is not None)
    covered = [1.0 if r.conformal_set.contains(r.gold_label) else 0.0
               for r in records if r.conformal_set is not None]
    return CellMetrics(
        macro_f1=f1,
        mean_token_count=tokens / n,
        mean_shot_count=shots / n,
        bypass_rate=sum(1 for r in records if r.bypassed) / n,
        invalid_rate=sum(1 for r in records if r.final_label is None) / n,
        empirical_coverage=sum(covered) / len(covered) if covered else None,
        n_records=n,
    )


def regime_aggregate(per_cell: Mapping[CellKey, CellMetrics],
                     regimes: Mapping[str, Sequence[int]], datasets: Sequence[str],
                     strategies: Sequence[str]) -> dict[tuple[str, str], float]:
    """Mean macro-F1 per (regime, strategy) over datasets x regime sizes."""
    out: dict[tuple[str, str], float] = {}
    for regime, sizes in regimes.items():
        if not sizes or not datasets:
            raise ValueError(f"regime {regime!r} is empty")
        for strategy in strategies:
            values = []
            for dataset in datasets:
                for size in sizes:
                    key = (dataset, size, strategy)
                    if key not in per_cell:
                        raise DataError(f"missing cell {dataset}/{size}/{strategy}")
                    values.append(per_cell[key].macro_f1)
            out[(regime, strategy)] = sum(values) / len(values)
    return out


def regimes_for(sizes: Sequence[int]) -> dict[str, list[int]]:
    """Partition the configured sizes into the low/medium/large bands."""
    out: dict[str, list[int]] = {}
    for name, (lo, hi) in REGIME_BOUNDS.items():
        members = [s for s in sizes if s >= lo and (hi is None or s <= hi)]
        if members:
            out[name] = members
    return out


def reduction_stats(cicle_cells: Sequence[CellMetrics],
                    baseline_cells: Mapping[str, Sequence[CellMetrics]],
                    ) -> dict[str, float]:
    """Prompt-token and shot-count reduction of the conformal route, in percent.

    Both reductions compare the all-size conformal mean with the average of
    the per-baseline all-size means; negative values mean the conformal
    prompts were larger.
    """
    if not cicle_cells:
        raise ValueError("no conformal cells to compare")
    if not baseline_cells or any(not cells for cells in baseline_cells.values()):
        raise ValueError("every baseline needs at least one cell")

    def mean(values):
        values = list(values)
        return sum(values) / len(values)

    out = {}
    for field, name in (("mean_token_count", "prompt_reduction_pct"),
                        ("mean_shot_count", "shot_reduction_pct")):
        cicle_mean = mean(getattr(c, field) for c in cicle_cells)
        baseline_mean = mean(mean(getattr(c, field) for c in cells)
                             for cells in baseline_cells.values())
        if baseline_mean == 0:
            raise ValueError(f"baseline {field} mean is zero; reduction undefined")
        out[name] = 100.0 * (1.0 - cicle_mean / baseline_mean)
    return out


def build_report(per_cell: Mapping[CellKey, CellMetrics]) -> RunReport:
    """Learning-curve aggregates, regime means and reductions over cell metrics.

    ``per_cell`` maps (dataset, size, strategy) to that cell's metrics.
    Regime means cover the datasets holding every size of the regime; regimes
    no dataset fully covers are dropped with a warning. Reductions are emitted
    per dataset whenever the conformal strategy and at least one few-shot
    baseline are present.
    """
    if not per_cell:
        raise ValueError("no cells to report")
    datasets = sorted({d for d, _, _ in per_cell})
    strategies = sorted({s for _, _, s in per_cell}, key=STRATEGIES.index)
    sizes_by_dataset = {d: sorted({s for dd, s, _ in per_cell if dd == d}) for d in datasets}

    # a dataset's all-size mean is a regime of its own sizes over that one dataset
    aggregates: dict[tuple[str, str], float] = {}
    for dataset in datasets:
        aggregates.update(regime_aggregate(per_cell, {dataset: sizes_by_dataset[dataset]},
                                           [dataset], strategies))

    regime_means: dict[tuple[str, str], float] = {}
    for regime, sizes in regimes_for(sorted({s for _, s, _ in per_cell})).items():
        covered = [d for d in datasets if set(sizes) <= set(sizes_by_dataset[d])]
        if not covered:
            log.warning("regime %r has no dataset with all of sizes %s; dropping it",
                        regime, list(sizes))
            continue
        regime_means.update(regime_aggregate(per_cell, {regime: list(sizes)}, covered,
                                             strategies))

    reductions: dict[str, dict[str, float]] = {}
    baselines_present = [s for s in strategies if s in FEWSHOT]
    if "cicle" in strategies and baselines_present:
        for dataset in datasets:
            sizes = sizes_by_dataset[dataset]
            cicle_cells = [per_cell[(dataset, size, "cicle")] for size in sizes]
            baselines = {s: [per_cell[(dataset, size, s)] for size in sizes]
                         for s in baselines_present}
            reductions[dataset] = reduction_stats(cicle_cells, baselines)

    return RunReport(per_cell=dict(per_cell), aggregates=aggregates, regimes=regime_means,
                     reductions=reductions)


def report_to_json(report: RunReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "per_cell": {f"{d}/{s}/{strat}": vars(m)
                     for (d, s, strat), m in sorted(report.per_cell.items())},
        "aggregates": {f"{d}/{strat}": v for (d, strat), v in sorted(report.aggregates.items())},
        "regimes": {f"{r}/{strat}": v for (r, strat), v in sorted(report.regimes.items())},
        "reductions": {d: dict(sorted(v.items())) for d, v in sorted(report.reductions.items())},
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def emit_report(report: RunReport, out_dir) -> list[Path]:
    """Write report.json plus plot-ready CSVs; byte-identical for equal reports.

    cells.csv has one row per (dataset, size, strategy); curve_{dataset}.csv
    is wide (one size per row, one macro-F1 column per strategy) for direct
    plotting.
    """
    out_dir = Path(out_dir)
    path = out_dir / "report.json"
    write_json(report_to_json(report), path)
    written = [path]

    keys = sorted(report.per_cell)
    path = out_dir / "cells.csv"
    _write_csv(path,
               ["dataset", "size", "strategy", "n_records", "macro_f1", "mean_token_count",
                "mean_shot_count", "bypass_rate", "invalid_rate", "empirical_coverage"],
               [[d, s, strat, m.n_records, m.macro_f1, m.mean_token_count, m.mean_shot_count,
                 m.bypass_rate, m.invalid_rate, m.empirical_coverage]
                for (d, s, strat), m in ((k, report.per_cell[k]) for k in keys)])
    written.append(path)

    datasets = sorted({d for d, _, _ in keys})
    strategies = sorted({s for _, _, s in keys}, key=STRATEGIES.index)
    for dataset in datasets:
        sizes = sorted({s for d, s, _ in keys if d == dataset})
        rows = []
        for size in sizes:
            row = [size]
            for strategy in strategies:
                m = report.per_cell.get((dataset, size, strategy))
                row.append(None if m is None else m.macro_f1)
            rows.append(row)
        path = out_dir / f"curve_{dataset}.csv"
        _write_csv(path, ["size"] + list(strategies), rows)
        written.append(path)

    path = out_dir / "aggregates.csv"
    _write_csv(path, ["dataset", "strategy", "macro_f1"],
               [[d, s, v] for (d, s), v in sorted(report.aggregates.items())])
    written.append(path)

    if report.regimes:
        path = out_dir / "regimes.csv"
        _write_csv(path, ["regime", "strategy", "macro_f1"],
                   [[r, s, v] for (r, s), v in sorted(report.regimes.items())])
        written.append(path)

    if report.reductions:
        path = out_dir / "reductions.csv"
        _write_csv(path, ["dataset", "prompt_reduction_pct", "shot_reduction_pct"],
                   [[d, v["prompt_reduction_pct"], v["shot_reduction_pct"]]
                    for d, v in sorted(report.reductions.items())])
        written.append(path)
    return written
