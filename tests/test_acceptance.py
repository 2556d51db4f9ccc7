"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Criteria 9 and 10 need the AG News training CSV; point CICLE_AGNEWS_TRAIN at
it to enable them, otherwise they skip.
"""

import csv
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from cicle.cli import main
from cicle.conformal import calibrate, calibration_from_scores, predict_set
from cicle.corpus import LabeledText, freeze_dataset, stable_seed, write_jsonl
from cicle.classifier import nll_and_grad
from cicle.evalreport import cell_metrics, macro_f1
from cicle.llm_client import ORACLES, LlmConfig
from cicle.pipeline import DatasetSpec, RunConfig, read_records, record_filename, run_experiment
from cicle.vectorize import encode, fit_tfidf, stack, transform

from conftest import make_items, space_for

AGNEWS_ENV = "CICLE_AGNEWS_TRAIN"


def verdict(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{num:02d}] {name}: {status}{suffix}", flush=True)
    assert ok, f"[{num:02d}] {name}: {status}{suffix}"


def cell_records(config, size, strategy):
    name = config.datasets[0].name
    return read_records(config.records_dir / record_filename(name, size, config.seed, strategy))


def skip(num, name, reason):
    print(f"[{num:02d}] {name}: SKIP ({reason})", flush=True)
    pytest.skip(reason)


def softmax_scores(rng, n, lift=1.5, n_classes=5):
    z = rng.normal(0.0, 1.0, size=(n, n_classes))
    gold = rng.integers(0, n_classes, size=n)
    z[np.arange(n), gold] += lift
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return p, gold


def test_01_conformal_coverage():
    start = time.monotonic()
    alpha, n_cal, n_test = 0.05, 500, 2000
    coverages = []
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        cal_probs, cal_gold = softmax_scores(rng, n_cal)
        calibration = calibrate(cal_probs, cal_gold, alpha)
        test_probs, test_gold = softmax_scores(rng, n_test)
        covered = sum(predict_set(calibration, test_probs[i]).contains(int(test_gold[i]))
                      for i in range(n_test))
        coverages.append(covered / n_test)
    mean_cov = sum(coverages) / len(coverages)
    elapsed = time.monotonic() - start
    verdict(1, "conformal-coverage",
            0.94 <= mean_cov <= 0.975 and elapsed < 60.0,
            f"mean coverage {mean_cov:.4f} over 20 seeds in {elapsed:.1f}s")


def test_02_alpha_nesting():
    rng = np.random.default_rng(2)
    scores = rng.uniform(size=200)
    alphas = [0.01, 0.05, 0.1, 0.2]
    calibrations = [calibration_from_scores(scores, a)
                    for a in alphas]
    violations = 0
    for _ in range(1000):
        n_classes = int(rng.integers(2, 9))
        probs = rng.dirichlet(np.ones(n_classes))
        sets = [set(predict_set(c, probs).classes()) for c in calibrations]
        # ascending alpha shrinks the set; each must contain the next
        for looser, tighter in zip(sets, sets[1:]):
            if not tighter <= looser:
                violations += 1
    verdict(2, "alpha-nesting", violations == 0,
            f"{violations} violations over 1000 vectors x {len(alphas)} alphas")


@pytest.fixture(scope="module")
def cicle_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cicle_run")
    items = make_items(360, n_classes=4, seed=7, overlap=0.75)
    space = space_for(items)
    freeze_dataset(items, space, out / "data" / "toy", "toy",
                   test_size=80, test_seed=stable_seed(0, "test", "toy"))
    completions = []

    def counting(prompt, meta, params):
        completions.append(prompt)
        return ORACLES["perfect"](prompt, meta, params)

    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(ORACLES, "counting-perfect", counting)  # LlmConfig checks the name
        config = RunConfig(datasets=[DatasetSpec(name="toy", path="unused")], output=str(out),
                           sizes=[120, 240], strategies=["cicle"], alpha=0.1, k=2, seed=0,
                           llm=LlmConfig(endpoint="counting-perfect"))
        run_experiment(config)
    return [cell_records(config, size, "cicle") for size in config.sizes], len(completions)


def test_03_perfect_oracle_identity(cicle_run):
    cells, _ = cicle_run
    details = []
    ok = True
    for cell in cells:
        hits = sum(r.final_label == r.gold_label for r in cell)
        covered = sum(r.conformal_set.contains(r.gold_label) for r in cell)
        ok = ok and hits == covered
        details.append(f"{hits}/{covered}")
    verdict(3, "perfect-oracle-identity", ok,
            f"accuracy==coverage counts per cell: {', '.join(details)}")


def test_04_bypass_accounting(cicle_run):
    cells, completions = cicle_run
    multi = sum(1 for cell in cells for r in cell
                if r.strategy == "cicle" and len(r.conformal_set) >= 2)
    verdict(4, "bypass-accounting", completions == multi,
            f"{completions} LLM calls for {multi} multi-class sets")


def test_05_gradient_matches_finite_differences():
    h = 1e-5
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        K = int(rng.integers(2, 4))
        V = int(rng.integers(3, 6))
        n = int(rng.integers(4, 9))
        rows = []
        for _ in range(n):
            nnz = int(rng.integers(1, V + 1))
            idx = np.sort(rng.choice(V, size=nnz, replace=False)).astype(np.int32)
            vals = rng.normal(size=nnz)
            rows.append((idx, vals / np.linalg.norm(vals)))
        X = stack(rows, V)
        y = rng.integers(0, K, size=n)
        W = 0.5 * rng.normal(size=(K, V))
        b = 0.5 * rng.normal(size=K)
        C = float(rng.choice([0.5, 1.0, 2.0]))
        _, dW, db, _ = nll_and_grad(W, b, X, y, C)
        analytic = np.concatenate([dW.ravel(), db])
        params = np.concatenate([W.ravel(), b])
        numeric = np.zeros_like(params)
        for i in range(len(params)):
            up, down = params.copy(), params.copy()
            up[i] += h
            down[i] -= h
            lu, _, _, _ = nll_and_grad(up[:K * V].reshape(K, V), up[K * V:], X, y, C)
            ld, _, _, _ = nll_and_grad(down[:K * V].reshape(K, V), down[K * V:], X, y, C)
            numeric[i] = (lu - ld) / (2 * h)
        rel = np.abs(analytic - numeric).max() / max(1.0, np.abs(analytic).max())
        worst = max(worst, rel)
    verdict(5, "gradient-correctness", worst < 1e-5,
            f"max relative error {worst:.2e} over 10 instances")


def test_06_tfidf_hand_oracle():
    model = fit_tfidf(encode(["aa bb", "aa cc"]))
    idf_aa = math.log(3 / 3) + 1
    idf_bb = math.log(3 / 2) + 1
    indices, values = transform(model, "aa bb")
    norm = math.hypot(idf_aa, idf_bb)
    expected = (idf_aa / norm, idf_bb / norm)
    errors = [
        abs(model.idf[model.vocabulary["aa"]] - idf_aa),
        abs(model.idf[model.vocabulary["bb"]] - idf_bb),
        abs(model.idf[model.vocabulary["cc"]] - idf_bb),
        abs(values[0] - expected[0]),
        abs(values[1] - expected[1]),
    ]
    ok = (model.vocabulary == {"aa": 0, "bb": 1, "cc": 2}
          and list(indices) == [0, 1]
          and max(errors) < 1e-9)
    verdict(6, "tfidf-hand-oracle", ok, f"max abs error {max(errors):.2e}")


def brute_force_macro_f1(preds, golds, n_classes):
    # full confusion matrix, row = gold, column = prediction (None = column n)
    matrix = [[0] * (n_classes + 1) for _ in range(n_classes)]
    for p, g in zip(preds, golds):
        matrix[g][n_classes if p is None else p] += 1
    scores = []
    for c in sorted(set(golds)):
        tp = matrix[c][c]
        fp = sum(matrix[g][c] for g in range(n_classes) if g != c)
        fn = sum(matrix[c][p] for p in range(n_classes + 1) if p != c)
        denom = 2 * tp + fp + fn
        scores.append(0.0 if denom == 0 else 2 * tp / denom)
    return sum(scores) / len(scores)


def test_07_macro_f1_brute_force():
    import random as pyrandom

    mismatches = 0
    for trial in range(100):
        rng = pyrandom.Random(7000 + trial)
        n_classes = rng.randint(2, 6)
        count = rng.randint(1, 50)
        golds = [rng.randrange(n_classes) for _ in range(count)]
        preds = [None if rng.random() < 0.15 else rng.randrange(n_classes)
                 for _ in range(count)]
        if macro_f1(preds, golds, n_classes) != brute_force_macro_f1(preds, golds, n_classes):
            mismatches += 1
    verdict(7, "macro-f1-brute-force", mismatches == 0,
            f"{mismatches} mismatches over 100 random instances")


def test_08_run_determinism(tmp_path):
    items = make_items(300, n_classes=4, seed=0, overlap=0.75)
    data = tmp_path / "toy.jsonl"
    write_jsonl(items, data)
    args = ["--sizes", "100,180", "--test-size", "60", "--alpha", "0.1", "--jobs", "4",
            "--strategies", "base,fewshot-random,fewshot-sparse,cicle"]
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        flags = ["--dataset", f"toy={data}", "--output", str(out), *args]
        assert main(["prepare", *flags]) == 0
        assert main(["run", *flags]) == 0
        assert main(["report", *flags]) == 0
        outputs.append(out)
    first, second = outputs
    compared = []
    identical = True
    for sub in ("records", "report"):
        names = sorted(p.name for p in (first / sub).iterdir())
        for name in names:
            same = (first / sub / name).read_bytes() == (second / sub / name).read_bytes()
            identical = identical and same
            compared.append(name)
    verdict(8, "run-determinism", identical and len(compared) >= 10,
            f"{len(compared)} artifacts byte-compared across two fresh runs")


def load_agnews(path):
    names = {"1": "World", "2": "Sports", "3": "Business", "4": "Sci/Tech"}
    items = []
    with open(path, newline="", encoding="utf-8") as fh:
        for i, row in enumerate(csv.reader(fh)):
            if not row or row[0].strip() not in names:
                continue
            text = " ".join(part.strip() for part in row[1:3] if part.strip())
            items.append(LabeledText(id=f"ag-{i:06d}", text=text,
                                     label=names[row[0].strip()]))
    if len(items) < 20000:
        raise ValueError(f"expected the full AG News training CSV, found {len(items)} rows")
    return items


@pytest.fixture(scope="module")
def agnews_run(tmp_path_factory):
    path = os.environ.get(AGNEWS_ENV)
    if not path or not Path(path).exists():
        return None
    out = tmp_path_factory.mktemp("agnews")
    items = load_agnews(path)
    space = space_for(items)
    freeze_dataset(items, space, out / "data" / "agnews", "agnews",
                   test_size=1000, test_seed=stable_seed(0, "test", "agnews"))
    return out


def test_09_agnews_base_macro_f1(agnews_run):
    if agnews_run is None:
        skip(9, "agnews-base-f1", f"set {AGNEWS_ENV} to the AG News train CSV to enable")
    sizes = [100, 200, 300, 400, 500, 1000, 2000, 3000, 4000, 5000]
    config = RunConfig(datasets=[DatasetSpec(name="agnews", path="unused")],
                       output=str(agnews_run), sizes=sizes, strategies=["base"],
                       alpha=0.05, k=2, seed=0)
    run_experiment(config)
    scores = []
    for size in sizes:
        cell = cell_records(config, size, "base")
        scores.append(macro_f1([r.final_label for r in cell],
                               [r.gold_label for r in cell], 4))
    avg = sum(scores) / len(scores)
    verdict(9, "agnews-base-f1", abs(avg - 0.808) <= 0.05,
            f"avg macro-F1 {avg:.4f} over 10 sizes, target 0.808 +/- 0.05")


def test_10_agnews_shot_reduction(agnews_run):
    if agnews_run is None:
        skip(10, "agnews-shot-reduction",
             f"set {AGNEWS_ENV} to the AG News train CSV to enable")
    config = RunConfig(datasets=[DatasetSpec(name="agnews", path="unused")],
                       output=str(agnews_run), sizes=[5000], strategies=["cicle"],
                       alpha=0.05, k=2, seed=0)
    run_experiment(config)
    mean_shots = cell_metrics(cell_records(config, 5000, "cicle"), 4).mean_shot_count
    budget = 0.75 * config.k * 4
    verdict(10, "agnews-shot-reduction", mean_shots <= budget,
            f"mean shot count {mean_shots:.2f} vs full-prompt budget {config.k * 4}")
