"""Tests for the experiment pipeline: cells, records, orchestration."""

import json
import os
import re
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cicle.conformal import ConformalSet
from cicle import pipeline
from cicle.corpus import (file_sha256, freeze_dataset, load_frozen, stable_seed,
                          stratified_split, stratified_subsample)
from cicle.errors import DataError, TransportError
from cicle.evalreport import build_report, cell_metrics, emit_report
from cicle.llm_client import ORACLES, LlmClient, LlmConfig
from cicle.pipeline import (
    DEFAULT_SIZES,
    DatasetSpec,
    PredictionRecord,
    RunConfig,
    build_cell,
    read_records,
    record_filename,
    run_experiment,
    write_records,
)
from cicle.prompting import DEFAULT_TEMPLATE, PromptStats
from cicle.serialize import JSON_STYLE

from conftest import make_items, space_for


def spec(name="toy", **kw):
    return DatasetSpec(name=name, path="unused.jsonl", **kw)


def make_config(output="unused", **kw):
    defaults = dict(datasets=[spec()], output=str(output), sizes=[80],
                    strategies=["base", "cicle"], alpha=0.1, k=2, seed=0)
    defaults.update(kw)
    return RunConfig(**defaults)


def built_cell(strategies, n=160, overlap=0.0, seed=0, **cfg_kw):
    items = make_items(n, n_classes=4, seed=seed, overlap=overlap)
    space = space_for(items)
    config = make_config(sizes=[n], strategies=list(strategies), **cfg_kw)
    test = make_items(40, n_classes=4, seed=seed + 100, overlap=overlap, prefix="te")
    res = build_cell(items, test, space, config, cell_seed=stable_seed(0, "toy", n),
                     task="text classification", strategies=config.strategies)
    return space, config, res, test


def prepare(output, name="toy", n=240, overlap=0.0, seed=0, test_size=60):
    items = make_items(n, n_classes=4, seed=seed, overlap=overlap)
    space = space_for(items)
    freeze_dataset(items, space, Path(output) / "data" / name, name,
                   test_size=test_size, test_seed=stable_seed(seed, "test", name))
    return items, space


def read_test(output, name="toy"):
    return load_frozen(Path(output) / "data" / name)[1]


def run_records(config, name="toy"):
    """Every record the run's files hold, file by file in (size, strategy) order."""
    return [record for size in config.sizes for s in config.strategies
            for record in read_records(config.records_dir
                                       / record_filename(name, size, config.seed, s))]


def classify_cell(res, strategy, llm, config):
    """One strategy's records over the cell's test set, its calls completed one by one."""
    records, calls = pipeline.cell_calls(res, strategy, config)
    for call in calls:
        pipeline._complete_into(call, llm, res.label_space, threading.Event())
    return records


def perfect():
    return LlmClient(LlmConfig(endpoint="perfect"))


def counting_perfect(monkeypatch):
    """A perfect-oracle client, and the list its completions are counted in."""
    completions = []

    def oracle(prompt, meta, params):
        completions.append(prompt)
        return ORACLES["perfect"](prompt, meta, params)

    monkeypatch.setitem(ORACLES, "counting-perfect", oracle)
    return LlmClient(LlmConfig(endpoint="counting-perfect")), completions


def test_classify_base_record_shape():
    space, config, res, test = built_cell(["base"])
    records = classify_cell(res, "base", None, config)
    assert len(records) == len(test)
    for item, rec in zip(test, records):
        assert rec.strategy == "base"
        assert rec.item_id == item.id
        assert rec.gold_label == space.position(item.label)
        assert rec.final_label == int(np.argmax(rec.base_probs))
        assert len(rec.base_probs) == 4
        assert rec.conformal_set is None
        assert rec.prompt_stats is None
        assert rec.llm_raw is None
        assert not rec.bypassed
        assert rec.error is None


def test_fewshot_perfect_oracle_hits_gold(monkeypatch):
    space, config, res, test = built_cell(["fewshot-random"])
    llm, completions = counting_perfect(monkeypatch)
    for item, rec in zip(test, classify_cell(res, "fewshot-random", llm, config)):
        assert rec.final_label == space.position(item.label)
        assert rec.llm_raw == item.label
        assert rec.base_probs is None
        assert rec.conformal_set is None
        assert rec.prompt_stats.shot_count == config.k * len(space)
        assert rec.prompt_stats.candidate_count == len(space)
    assert len(completions) == len(test)


def test_fewshot_majority_oracle_picks_first_label():
    space, config, res, test = built_cell(["fewshot-sparse"])
    llm = LlmClient(LlmConfig(endpoint="majority"))
    for rec in classify_cell(res, "fewshot-sparse", llm, config):
        assert rec.final_label == 0
        assert rec.llm_raw == space.labels[0]


def test_cicle_bypass_on_separable_data():
    space, config, res, test = built_cell(["base", "cicle"], alpha=0.2)
    llm = perfect()
    records = classify_cell(res, "cicle", llm, config)
    bypassed = [r for r in records if r.bypassed]
    assert len(bypassed) > len(records) * 0.8
    for rec in bypassed:
        assert len(rec.conformal_set) == 1 or rec.conformal_set.forced_fallback
        assert rec.final_label == int(np.argmax(rec.base_probs))
        assert rec.prompt_stats is None
        assert rec.llm_raw is None


def test_cicle_prompts_carry_set_candidates():
    space, config, res, test = built_cell(["base", "cicle"], overlap=0.75, n=200)
    llm = perfect()
    records = classify_cell(res, "cicle", llm, config)
    prompted = [r for r in records if not r.bypassed]
    assert prompted
    for rec in prompted:
        assert len(rec.conformal_set) >= 2
        assert rec.prompt_stats.candidate_count == len(rec.conformal_set)
        assert rec.prompt_stats.shot_count <= config.k * len(rec.conformal_set)
        assert rec.llm_raw is not None


def test_perfect_oracle_identity_accuracy_equals_coverage():
    space, config, res, test = built_cell(["base", "cicle"], overlap=0.75, n=200)
    llm = perfect()
    records = classify_cell(res, "cicle", llm, config)
    for rec in records:
        covered = rec.conformal_set.contains(rec.gold_label)
        assert (rec.final_label == rec.gold_label) == covered
    accuracy = sum(r.final_label == r.gold_label for r in records) / len(records)
    coverage = sum(r.conformal_set.contains(r.gold_label) for r in records) / len(records)
    assert accuracy == coverage


def test_llm_called_exactly_once_per_multiclass_set(monkeypatch):
    space, config, res, test = built_cell(["base", "cicle"], overlap=0.75, n=200)
    llm, completions = counting_perfect(monkeypatch)
    records = classify_cell(res, "cicle", llm, config)
    multi = sum(1 for r in records if len(r.conformal_set) >= 2)
    assert len(completions) == multi
    # each call fills in its own record's answer
    assert all((r.llm_raw is None) == r.bypassed for r in records)
    assert multi == sum(1 for r in records if not r.bypassed)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 5), overlap=st.sampled_from([0.0, 0.5, 0.75]),
       size=st.sampled_from([40, 80, 160]), k=st.integers(1, 3))
def test_no_prompted_call_shows_its_own_item(seed, overlap, size, k):
    """On a toy corpus frozen and read back, no prompt that cell_calls builds
    has its query among the shots, under any prompting strategy; and each call's
    meta, which the oracles answer from, offers the prompt's classes, at least
    two, with the query's gold label."""
    shown = []  # (query id, the prompt's classes, ids of its shots) per prompt built
    real = pipeline.build_prompt

    def spying(template, shots, item, **kwargs):
        shown.append((item.id, shots.classes(),
                      {shot.id for _, items in shots.per_class for shot in items}))
        return real(template, shots, item, **kwargs)

    strategies = ["cicle", "fewshot-random", "fewshot-sparse"]
    config = make_config(strategies=strategies, k=k, seed=seed)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        prepare(tmp, overlap=overlap, seed=seed)
        pool, test, space, _ = load_frozen(Path(tmp) / "data" / "toy")
        cell_seed = stable_seed(seed, "toy", size)
        res = build_cell(stratified_subsample(pool, size, cell_seed), test, space, config,
                         cell_seed, task="text classification", strategies=strategies)
        mp.setattr(pipeline, "build_prompt", spying)
        calls = [call for s in strategies for call in pipeline.cell_calls(res, s, config)[1]]
    gold = {item.id: item.label for item in test}
    assert len(shown) == len(calls) > 0
    for (query, classes, shots), call in zip(shown, calls):
        assert call.record.item_id == query and query not in shots
        assert call.meta.classes == tuple(classes) and len(classes) >= 2
        assert call.meta.gold_label == gold[query]


def malformed_chat_app(handler):
    from conftest import read_json, respond_json

    read_json(handler)
    respond_json(handler, 200, {"unexpected": "shape"})


@pytest.mark.parametrize("reply,error", [
    ((500, ""), "completion endpoint failed after 1 attempts (server error 500)"),
    ((403, ""), "completion endpoint returned 403"),
    (None, "malformed completion response"),
], ids=["500", "403", "malformed"])
def test_a_failed_call_fails_its_cell(tmp_path, serve, reply, error):
    from conftest import scripted_chat_app

    url = serve(malformed_chat_app if reply is None else scripted_chat_app([reply]))
    out = tmp_path / "run"
    prepare(out)
    config = make_config(output=out, strategies=["fewshot-random"],
                         llm=LlmConfig(endpoint=url, max_retries=0, backoff=0.0))
    with pytest.raises(TransportError) as exc:
        run_experiment(config)
    assert str(exc.value) == f"1 failed cell(s): toy/80/fewshot-random: {error}"
    assert not list((out / "records").glob("*.jsonl"))
    assert json.loads(config.manifest_path.read_text(encoding="utf-8"))["records"] == {}


def test_an_endpoint_host_that_does_not_encode_fails_its_cell(tmp_path, monkeypatch):
    for var in [k for k in os.environ if k.lower().endswith("_proxy")]:
        monkeypatch.delenv(var)
    out = tmp_path / "run"
    prepare(out)
    # a 64-character label fails to encode before any name lookup
    config = make_config(output=out, strategies=["fewshot-random"],
                         llm=LlmConfig(endpoint=f"http://{'é' * 64}.invalid/v1",
                                       max_retries=0, timeout=1.0))
    with pytest.raises(TransportError, match=r"^1 failed cell\(s\): toy/80/fewshot-random: "
                                             r"completion endpoint failed after 1 attempts "
                                             r"\(transport failure: .*idna"):
        run_experiment(config)
    assert not list((out / "records").glob("*.jsonl"))


def test_cicle_skips_calibration_items_and_baselines_draw_from_the_subsample(monkeypatch):
    # calibration items tuned cicle's threshold, so they are never its shots;
    # the few-shot baselines need no calibration and draw from the whole subsample
    items = make_items(200, n_classes=4, overlap=0.75)
    test = make_items(40, n_classes=4, seed=100, overlap=0.75, prefix="te")
    strategies = ["cicle", "fewshot-random", "fewshot-sparse"]
    config = make_config(sizes=[200], strategies=strategies)
    res = build_cell(items, test, space_for(items), config, cell_seed=3,
                     task="text classification", strategies=strategies)
    split = stratified_split(items, pipeline.CALIB_FRACTION, 3)
    train_ids = {t.id for t in split.train}
    cal_ids = {t.id for t in split.calibration}
    drawn = []

    def spying(real):
        def spy(pool, *args):
            shot_sets = real(pool, *args)
            drawn.append(({it.id for it in pool.items},
                          {it.id for s in shot_sets for _, its in s.per_class for it in its}))
            return shot_sets
        return spy

    for name in ("select_random", "select_sparse"):
        monkeypatch.setattr(pipeline, name, spying(getattr(pipeline, name)))
    for strategy in strategies:
        drawn.clear()
        classify_cell(res, strategy, perfect(), config)
        [(pool_ids, shot_ids)] = drawn
        if strategy == "cicle":
            assert pool_ids == train_ids
            assert shot_ids and not shot_ids & cal_ids
        else:
            assert pool_ids == train_ids | cal_ids
            assert shot_ids & cal_ids and shot_ids & train_ids


def test_record_json_roundtrip():
    rec = PredictionRecord(
        item_id="it-7", strategy="cicle", gold_label=2, final_label=1,
        base_probs=[0.1, 0.6, 0.3],
        conformal_set=ConformalSet(candidates=[(1, 0.6), (2, 0.3)]),
        bypassed=False,
        prompt_stats=PromptStats(token_count=42, shot_count=4, candidate_count=2),
        llm_raw="bravo",
    )
    obj = json.loads(json.dumps(rec, **JSON_STYLE))
    assert set(obj) == {"item_id", "strategy", "gold_label", "final_label", "base_probs",
                        "conformal_set", "bypassed", "prompt_stats", "llm_raw", "error"}
    back = PredictionRecord.from_json(json.loads(json.dumps(obj)), "r.jsonl:1")
    assert back == rec


def test_record_json_nulls_for_base():
    rec = PredictionRecord(item_id="a", strategy="base", gold_label=0, final_label=0,
                           base_probs=[1.0, 0.0])
    obj = json.loads(json.dumps(rec, **JSON_STYLE))
    assert obj["conformal_set"] is None
    assert obj["prompt_stats"] is None
    assert obj["llm_raw"] is None
    assert obj["error"] is None
    assert PredictionRecord.from_json(obj, "r.jsonl:1") == rec


# a prompted cicle record as write_records writes it
PROMPTED = {"item_id": "a", "strategy": "cicle", "gold_label": 1, "final_label": 1,
            "base_probs": [0.5, 0.3, 0.2], "bypassed": False,
            "conformal_set": {"candidates": [[0, 0.5], [1, 0.3]], "forced_fallback": False},
            "prompt_stats": {"token_count": 3, "shot_count": 2, "candidate_count": 2},
            "llm_raw": "bravo", "error": None}


def edited(**fields):
    """A copy of PROMPTED with ``fields`` set; a dict value updates that nested object."""
    obj = json.loads(json.dumps(PROMPTED))
    for name, value in fields.items():
        if isinstance(value, dict):
            obj[name].update(value)
        else:
            obj[name] = value
    return obj


@pytest.mark.parametrize("obj", [
    {},
    {"item_id": "a", "strategy": "base", "gold_label": "x", "final_label": 0},
    {"item_id": "a", "strategy": "base", "gold_label": 0, "final_label": 0,
     "conformal_set": {"candidates": "nope"}},
    {"item_id": "a", "strategy": "base", "gold_label": float("inf"), "final_label": 0},
    {"item_id": "a", "strategy": "base", "gold_label": 0, "final_label": float("-inf")},
    {"item_id": "a", "strategy": "cicle", "gold_label": 0, "final_label": 0,
     "prompt_stats": {"token_count": float("inf"), "shot_count": 0, "candidate_count": 2}},
    # a value of another JSON type is rejected, never converted
    edited(bypassed="false"),
    edited(gold_label=2.9),
    edited(gold_label=True),
    edited(final_label="1"),
    edited(item_id=7),
    edited(base_probs=[0.5, "0.5", 0.2]),
    edited(conformal_set={"forced_fallback": "no"}),
    edited(prompt_stats={"token_count": 3.0}),
    edited(llm_raw=5),
])
def test_record_from_json_rejects_malformed(obj):
    assert PredictionRecord.from_json(PROMPTED, "r.jsonl:7").bypassed is False
    with pytest.raises(DataError, match="^r.jsonl:7: malformed prediction record: "):
        PredictionRecord.from_json(obj, "r.jsonl:7")


def test_write_read_records_roundtrip(tmp_path):
    records = [
        PredictionRecord(item_id=f"it-{i}", strategy="base", gold_label=i % 3,
                         final_label=(i + 1) % 3, base_probs=[0.2, 0.3, 0.5])
        for i in range(5)
    ]
    path = tmp_path / "cell.jsonl"
    write_records(records, path)
    assert read_records(path) == records


def test_write_records_leaves_no_partial_file(tmp_path):
    good = PredictionRecord(item_id="a", strategy="base", gold_label=0, final_label=0)
    bad = PredictionRecord(item_id="b", strategy="base", gold_label=0, final_label=0,
                           base_probs=[object()])
    path = tmp_path / "cell.jsonl"
    with pytest.raises(TypeError):
        write_records([good, good, bad, good], path)
    assert list(tmp_path.iterdir()) == []

    write_records([good], path)
    with pytest.raises(TypeError):
        write_records([good, bad], path)
    assert read_records(path) == [good]
    assert list(tmp_path.iterdir()) == [path]


def test_read_records_reports_bad_line(tmp_path):
    path = tmp_path / "cell.jsonl"
    good = json.dumps(PredictionRecord(item_id="a", strategy="base", gold_label=0,
                                       final_label=0), **JSON_STYLE)
    path.write_text(good + "\n{broken\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2: invalid JSON"):
        read_records(path)
    path.write_text(good + '\n\n{"item_id": "b"}\n', encoding="utf-8")
    with pytest.raises(DataError, match=r"cell.jsonl:3: malformed prediction record"):
        read_records(path)


def test_record_filename():
    assert record_filename("ag", 500, 7, "cicle") == "ag_500_7_cicle.jsonl"


def test_run_experiment_end_to_end(tmp_path):
    out = tmp_path / "run"
    prepare(out)
    config = make_config(output=out, sizes=[80, 120],
                         strategies=["base", "fewshot-random", "cicle"])
    assert run_experiment(config) == 2 * 3 * 60

    files = sorted(p.name for p in (out / "records").glob("*.jsonl"))
    expected = sorted(record_filename("toy", size, 0, s)
                      for size in (80, 120) for s in ("base", "fewshot-random", "cicle"))
    assert files == expected

    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["records"]) == set(expected)
    for name, sha in manifest["records"].items():
        assert file_sha256(out / "records" / name) == sha
    data_manifest = json.loads((out / "data" / "toy" / "manifest.json").read_text("utf-8"))
    assert manifest["datasets"]["toy"] == data_manifest["sha256"]
    assert manifest["config"]["strategies"] == ["base", "fewshot-random", "cicle"]

    for name in expected:
        assert len(read_records(out / "records" / name)) == 60


def test_run_experiment_record_invariants(tmp_path):
    out = tmp_path / "run"
    prepare(out, overlap=0.75)
    config = make_config(output=out, sizes=[120],
                         strategies=["base", "fewshot-random", "fewshot-sparse", "cicle"])
    run_experiment(config)
    by_strategy = {}
    for rec in run_records(config):
        by_strategy.setdefault(rec.strategy, []).append(rec)
    assert set(by_strategy) == {"base", "fewshot-random", "fewshot-sparse", "cicle"}

    for rec in by_strategy["base"]:
        assert rec.conformal_set is None and rec.prompt_stats is None
        assert rec.final_label == int(np.argmax(rec.base_probs))
    for strategy in ("fewshot-random", "fewshot-sparse"):
        for rec in by_strategy[strategy]:
            assert rec.base_probs is None and rec.conformal_set is None
            assert rec.prompt_stats.candidate_count == 4
    for rec in by_strategy["cicle"]:
        assert rec.base_probs is not None
        assert rec.bypassed == (len(rec.conformal_set) == 1)
        if rec.bypassed:
            assert rec.prompt_stats is None and rec.llm_raw is None
            assert rec.final_label == int(np.argmax(rec.base_probs))
        else:
            assert rec.prompt_stats.candidate_count == len(rec.conformal_set)


def test_run_experiment_skips_small_and_oversized_cells(tmp_path, caplog):
    out = tmp_path / "run"
    prepare(out)  # pool of 180 after the 60-item test split
    config = make_config(output=out, sizes=[80, 120, 500], strategies=["base"],
                         datasets=[spec(min_size=100)])
    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        run_experiment(config)
    files = sorted(p.name for p in (out / "records").glob("*.jsonl"))
    assert files == [record_filename("toy", 120, 0, "base")]
    messages = " ".join(rec.message for rec in caplog.records)
    assert "below the dataset minimum" in messages
    assert "pool has only" in messages


def set_manifest_entry(config, path):
    """Write ``path``'s current sha256 into the run manifest, as if a run had written it."""
    manifest = json.loads(config.manifest_path.read_text(encoding="utf-8"))
    manifest["records"][path.name] = file_sha256(path)
    config.manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def test_run_experiment_reuses_existing_cells(tmp_path, caplog):
    out = tmp_path / "run"
    prepare(out)
    config = make_config(output=out, sizes=[80], strategies=["base"])
    run_experiment(config)
    path = out / "records" / record_filename("toy", 80, 0, "base")
    original = path.read_bytes()

    # a file that does not hash to its manifest entry is recomputed, with a warning naming it
    sentinel = [PredictionRecord(item_id="fake", strategy="base", gold_label=0,
                                 final_label=0, base_probs=[1.0, 0.0, 0.0, 0.0])]
    write_records(sentinel, path)
    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        assert run_experiment(config) == 60
    assert path.read_bytes() == original
    assert [rec.message for rec in caplog.records if path.name in rec.message]

    # a file whose manifest entry is its own hash is reused as it is; it counts as
    # one record per test item
    write_records(sentinel, path)
    set_manifest_entry(config, path)
    stamped = path.read_bytes()
    assert run_experiment(make_config(output=out, sizes=[80], strategies=["base"])) == 60
    assert path.read_bytes() == stamped

    run_experiment(make_config(output=out, sizes=[80], strategies=["base"]), force=True)
    assert path.read_bytes() == original


def test_run_experiment_recomputes_a_record_file_edited_in_place(tmp_path, caplog):
    out = tmp_path / "run"
    prepare(out)
    config = make_config(output=out, sizes=[80], strategies=["base", "cicle"])
    run_experiment(config)
    path = out / "records" / record_filename("toy", 80, 0, "cicle")
    original = path.read_bytes()

    # same ids, same count, one final_label changed: only the hash tells
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    first = json.loads(lines[0])
    first["final_label"] = (first["final_label"] + 1) % 4
    lines[0] = json.dumps(first, **JSON_STYLE) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    assert path.read_bytes() != original

    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        run_experiment(config)
    assert path.read_bytes() == original
    assert [rec.message for rec in caplog.records if path.name in rec.message]

    # a record file with no manifest entry, say from an interrupted run, is recomputed too
    config.manifest_path.unlink()
    path.write_text("".join(lines), encoding="utf-8")
    run_experiment(config)
    assert path.read_bytes() == original


def spy_writes(monkeypatch):
    """The names of the record files the run writes from now on."""
    written = []
    real = pipeline.write_records

    def spy(records, path):
        written.append(Path(path).name)
        real(records, path)

    monkeypatch.setattr(pipeline, "write_records", spy)
    return written


def test_run_experiment_recomputes_a_file_written_under_another_alpha(tmp_path):
    out = tmp_path / "run"
    prepare(out, overlap=0.75)
    path = out / "records" / record_filename("toy", 80, 0, "cicle")
    run_experiment(make_config(output=out, strategies=["cicle"], alpha=0.05))
    at_005 = path.read_bytes()
    run_experiment(make_config(output=out, strategies=["cicle"], alpha=0.3))

    fresh = tmp_path / "fresh"
    prepare(fresh, overlap=0.75)
    run_experiment(make_config(output=fresh, strategies=["cicle"], alpha=0.3))
    at_03 = (fresh / "records" / path.name).read_bytes()
    assert at_03 != at_005
    assert path.read_bytes() == at_03


def keyed_config(out, **kw):
    kw.setdefault("llm", LlmConfig(endpoint="noisy"))
    kw.setdefault("strategies", ["cicle"])
    return make_config(output=out, **kw)


@pytest.mark.parametrize("change", [
    {"alpha": 0.3},
    {"k": 1},
    {"template": replace(DEFAULT_TEMPLATE, instruction="Reply with one label.")},
    {"datasets": [spec(task="topic labelling")]},
    {"llm": LlmConfig(endpoint="perfect")},
    {"llm": LlmConfig(endpoint="noisy", oracle_params={"default_accuracy": 0.5})},
    {"test_size": 50},
], ids=["alpha", "k", "template", "task", "llm-endpoint", "oracle-params",
        "re-prepared-test-size"])
def test_run_experiment_recomputes_a_file_when_its_key_changes(tmp_path, monkeypatch, caplog,
                                                               change):
    out = tmp_path / "run"
    prepare(out, overlap=0.75)
    run_experiment(keyed_config(out))
    change = dict(change)
    if "test_size" in change:
        # the frozen splits change; the run configuration stays as it was
        prepare(out, overlap=0.75, test_size=change.pop("test_size"))
    name = record_filename("toy", 80, 0, "cicle")
    written = spy_writes(monkeypatch)
    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        run_experiment(keyed_config(out, **change))
    assert written == [name]
    assert [rec.message for rec in caplog.records if name in rec.message] == [
        f"cell file {name} was written under another configuration; recomputing it"]


def test_a_file_keyed_under_an_older_records_version_is_recomputed(tmp_path, monkeypatch,
                                                                   caplog):
    out = tmp_path / "run"
    prepare(out, overlap=0.75)
    with monkeypatch.context() as mp:
        mp.setattr(pipeline, "RECORDS_VERSION", pipeline.RECORDS_VERSION - 1)
        run_experiment(keyed_config(out))
    name = record_filename("toy", 80, 0, "cicle")
    written = spy_writes(monkeypatch)
    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        run_experiment(keyed_config(out))
    assert written == [name]
    assert [rec.message for rec in caplog.records if name in rec.message] == [
        f"cell file {name} was written under another configuration; recomputing it"]


def test_rerun_reuses_every_file_without_decoding_it(tmp_path, monkeypatch, caplog):
    out = tmp_path / "run"
    prepare(out, overlap=0.75)
    run_experiment(keyed_config(out, sizes=[80, 120], strategies=["base", "cicle"], jobs=1))
    written = spy_writes(monkeypatch)

    def no_decoding(path):
        raise AssertionError(f"run decoded {path}")

    monkeypatch.setattr(pipeline, "read_records", no_decoding)
    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        # --jobs, the size list and the strategy list are not part of the key
        assert run_experiment(keyed_config(out, sizes=[80, 120],
                                           strategies=["base", "cicle"], jobs=3)) == 4 * 60
        assert run_experiment(keyed_config(out, sizes=[120], strategies=["cicle"])) == 60
    assert written == []
    assert not caplog.records


def test_an_interrupted_run_keeps_its_finished_files(tmp_path, monkeypatch, caplog):
    def interrupting(prompt, meta, params):
        if prompt == "interrupt":
            raise KeyboardInterrupt
        return ORACLES["noisy"](prompt, meta, params)

    def tag(n, strategy, call):
        if n == 1:
            call.prompt = "interrupt"

    out = tmp_path / "run"
    prepare(out, overlap=0.75)
    monkeypatch.setitem(ORACLES, "interrupting", interrupting)
    config = make_config(output=out, strategies=["fewshot-random", "cicle"],
                         llm=LlmConfig(endpoint="interrupting"))
    with monkeypatch.context() as mp, pytest.raises(KeyboardInterrupt):
        tag_calls(mp, tag)
        run_experiment(config)
    finished = record_filename("toy", 80, 0, "fewshot-random")
    assert sorted(p.name for p in (out / "records").iterdir()) == [finished]

    written = spy_writes(monkeypatch)
    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        run_experiment(config)
    assert written == [record_filename("toy", 80, 0, "cicle")]
    assert not caplog.records


def test_an_interrupted_pooled_run_starts_no_queued_call(tmp_path, monkeypatch):
    interrupted = threading.Event()
    made = []

    def holding(prompt, meta, params):
        interrupted.wait(timeout=5.0)
        made.append(prompt)
        return meta.gold_label

    def tag(n, strategy, call):
        # building the second pair's prompts is interrupted while the first
        # pair's calls are held or queued in the pool
        if n == 1:
            interrupted.set()
            raise KeyboardInterrupt

    out = tmp_path / "run"
    prepare(out)
    monkeypatch.setitem(ORACLES, "holding", holding)
    tag_calls(monkeypatch, tag)
    config = make_config(output=out, sizes=[80, 160], strategies=["fewshot-random"], jobs=2,
                         llm=LlmConfig(endpoint="holding"))
    with pytest.raises(KeyboardInterrupt):
        run_experiment(config)
    # at most the calls already running when the interrupt came, of 60
    assert len(made) <= config.jobs
    assert not list((out / "records").glob("*.jsonl"))


def test_run_experiment_parallel_is_byte_identical(tmp_path):
    outputs = []
    for jobs in (1, 4):
        out = tmp_path / f"run{jobs}"
        prepare(out, overlap=0.75)
        config = make_config(output=out, sizes=[120],
                             strategies=["fewshot-sparse", "cicle"], jobs=jobs)
        run_experiment(config)
        outputs.append(out)
    for name in sorted(p.name for p in (outputs[0] / "records").glob("*.jsonl")):
        a = (outputs[0] / "records" / name).read_bytes()
        b = (outputs[1] / "records" / name).read_bytes()
        assert a == b, name


# sha256 of every record file of a small grid; a change to any record byte, at
# any --jobs, shows here. The fewshot-* entries were pinned from the per-item
# implementation that the batched cell path replaced. The base and cicle
# entries were re-pinned twice: when test and calibration probabilities became
# one ``X @ W.T`` product, and when training moved from L-BFGS-B to Newton-CG
# (probabilities moved by at most 6e-6); both times every final_label and
# conformal-set class stayed as before, and GOLDEN_REPORT did not move.
GOLDEN_RECORDS = {
    "toy_80_0_base.jsonl": "a0b140668d19c570d6fcfbebe68187ee4d97bf15ffd18a01837bb196b91e6ece",
    "toy_80_0_cicle.jsonl": "6f82b91b92313d49038d14d4b65461eb5b9dbcab92dbe19d4ccfac010506821f",
    "toy_80_0_fewshot-random.jsonl":
        "9bf66576a40eddc76400c6ab6af14d903cc631cfe552aa9d20c9f342b6fc0731",
    "toy_80_0_fewshot-sparse.jsonl":
        "69e688b45334ed239db86eb729db034af47979a63655b166e908e79be700b181",
    "toy_160_0_base.jsonl": "ca6d4df150f4c9764c59aa61e0346e90305880a6c0a173a34e502c3066ac87f2",
    "toy_160_0_cicle.jsonl": "18147c8fea9a9ff2ef139a2c3a2199c263bab3d2cfbf1473e1d43a0135b533d9",
    "toy_160_0_fewshot-random.jsonl":
        "a667f112ecb7edcb4f95e88d590777935f431998fad1b8225fec60d1741bcf46",
    "toy_160_0_fewshot-sparse.jsonl":
        "f825dad6c2f38964a5af23d454b20392651f877c0101c0c48fc05e4d849fed5c",
}


# sha256 of every report file built from those records, pinned the same way
GOLDEN_REPORT = {
    "aggregates.csv": "6cfcc92c5ad1d6b14200714060e574d15d48db969df641fa94ac1c5377ce2b86",
    "cells.csv": "6efe21976be2f9e622bc8fdd4f2c4c3cd4f6e084af397bdb653be72575d8c3ab",
    "curve_toy.csv": "a75bd6157c7ecf820958d21962fb9200f28e0d0d9c2e4f413046b0c3ed2593ef",
    "reductions.csv": "e5699bdcb0f32620af993859ddbb3fbbf823c193993d56ed5366d744278f1799",
    "regimes.csv": "b70bb1f0d472ec153ceba010e05c04611d07f02fc0f1fb3c55ce3234fdb038b8",
    "report.json": "a142f57ca2585d1d5c50b112b35c7db2e8acf09ed7e2c23900ec2ecb47198cc7",
}


def golden_config(out, **kw):
    kw.setdefault("llm", LlmConfig(endpoint="noisy"))
    return make_config(output=out, sizes=[80, 160],
                       strategies=["base", "fewshot-random", "fewshot-sparse", "cicle"], **kw)


@pytest.mark.parametrize("jobs", [1, 2, 6])
def test_run_experiment_golden_bytes(tmp_path, jobs):
    out = tmp_path / "run"
    prepare(out, overlap=0.75)
    config = golden_config(out, jobs=jobs)
    assert run_experiment(config) == 2 * 4 * 60
    records = run_records(config)
    assert [(r.strategy, r.item_id) for r in records] == [
        (s, item.id) for size in config.sizes for s in config.strategies
        for item in read_test(out)]
    cicle = [r for r in records if r.strategy == "cicle"]
    assert 0 < sum(r.bypassed for r in cicle) < len(cicle)
    digests = {p.name: file_sha256(p) for p in (out / "records").glob("*.jsonl")}
    assert digests == GOLDEN_RECORDS
    per_cell = {("toy", size, s): cell_metrics(
                    read_records(out / "records" / record_filename("toy", size, 0, s)), 4)
                for size in config.sizes for s in config.strategies}
    emit_report(build_report(per_cell), out / "report")
    digests = {p.name: file_sha256(p) for p in (out / "report").iterdir()}
    assert digests == GOLDEN_REPORT


def tag_calls(monkeypatch, tag):
    """Route run_experiment's CPU stage through ``tag(n, strategy, call)``, where n
    counts (cell, strategy) pairs from 0 in the order the run builds them."""
    real = pipeline.cell_calls
    built = []

    def tagged(res, strategy, *args, **kwargs):
        records, calls = real(res, strategy, *args, **kwargs)
        for call in calls:
            tag(len(built), strategy, call)
        built.append(strategy)
        return records, calls

    monkeypatch.setattr(pipeline, "cell_calls", tagged)
    return built


def test_jobs_bounds_in_flight_llm_calls(tmp_path, monkeypatch):
    peaks, overlaps = {}, {}
    for jobs in (2, 6):
        state = {"peak": 0, "pairs": set()}
        active: list[int] = []  # the pair number of each call in flight
        cond = threading.Condition()

        def tracking(prompt, meta, params):
            pair = int(prompt.split(":")[0])
            with cond:
                active.append(pair)
                state["peak"] = max(state["peak"], len(active))
                state["pairs"].update((min(pair, p), max(pair, p)) for p in active if p != pair)
                cond.notify_all()
                # hold each call until `jobs` calls are in flight at once, or give up
                cond.wait_for(lambda: len(active) >= jobs, timeout=1.0)
                active.remove(pair)
            return meta.gold_label

        def tag(n, strategy, call):
            call.prompt = f"{n}:{call.prompt}"

        out = tmp_path / f"run{jobs}"
        prepare(out, overlap=0.75)
        monkeypatch.setitem(ORACLES, "tracking-test", tracking)
        built = tag_calls(monkeypatch, tag)
        config = make_config(output=out, sizes=[80, 120], strategies=["fewshot-random", "cicle"],
                             jobs=jobs, llm=LlmConfig(endpoint="tracking-test"))
        assert run_experiment(config) == 4 * 60
        assert len(built) == 4
        assert all(r.final_label == r.gold_label for r in run_records(config) if r.prompt_stats)
        peaks[jobs] = state["peak"]
        overlaps[jobs] = any(b == a + 1 for a, b in state["pairs"])
    assert peaks == {2: 2, 6: 6}
    # one (cell, strategy)'s calls were still in flight when the next one's started
    assert overlaps == {2: True, 6: True}


def test_a_failing_completion_fails_only_its_cell(tmp_path, monkeypatch):
    def flaky(prompt, meta, params):
        if prompt == "raise":
            raise TransportError("oracle broke", attempts=1)
        return ORACLES["noisy"](prompt, meta, params)

    def tag(n, strategy, call):
        # the second pair, toy/80/fewshot-random, fails on one of its items
        if n == 1 and call.record.item_id == test_ids[7]:
            call.prompt = "raise"

    out = tmp_path / "run"
    prepare(out, overlap=0.75)
    test_ids = [item.id for item in read_test(out)]
    monkeypatch.setitem(ORACLES, "flaky", flaky)
    tag_calls(monkeypatch, tag)
    with pytest.raises(TransportError) as exc:
        run_experiment(golden_config(out, jobs=3, llm=LlmConfig(endpoint="flaky")))
    assert str(exc.value) == "1 failed cell(s): toy/80/fewshot-random: oracle broke"
    failed = record_filename("toy", 80, 0, "fewshot-random")
    digests = {p.name: file_sha256(p) for p in (out / "records").glob("*.jsonl")}
    assert digests == {name: sha for name, sha in GOLDEN_RECORDS.items() if name != failed}
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["records"] == digests


def test_a_failed_call_cancels_the_calls_of_its_cell_not_yet_started(tmp_path, monkeypatch):
    raised = threading.Event()
    made = []  # calls made for toy/80/fewshot-random, whose first item fails

    def failing(prompt, meta, params):
        if prompt == "raise":
            made.append(prompt)
            raised.set()
            raise TransportError("oracle broke", attempts=1)
        if prompt.startswith("first:"):
            made.append(prompt)
            raised.wait(timeout=1.0)
            time.sleep(0.1)  # the other worker runs the failed call's callback meanwhile
        return meta.gold_label

    def tag(n, strategy, call):
        if n == 0:
            call.prompt = ("raise" if call.record.item_id == test_ids[0]
                           else f"first:{call.prompt}")

    out = tmp_path / "run"
    prepare(out)
    test_ids = [item.id for item in read_test(out)]
    monkeypatch.setitem(ORACLES, "failing", failing)
    tag_calls(monkeypatch, tag)
    # the calls of toy/160 queue behind those of toy/80 in the one pool
    config = make_config(output=out, sizes=[80, 160], strategies=["fewshot-random"], jobs=2,
                         llm=LlmConfig(endpoint="failing"))
    with pytest.raises(TransportError) as exc:
        run_experiment(config)
    assert str(exc.value) == "1 failed cell(s): toy/80/fewshot-random: oracle broke"
    # the failed call and at most one call per other worker, of 60 queued
    assert "raise" in made and len(made) <= config.jobs + 1
    assert [p.name for p in (out / "records").glob("*.jsonl")] == [
        record_filename("toy", 160, 0, "fewshot-random")]


def test_a_later_failed_call_stops_its_queued_siblings_and_is_the_one_raised(tmp_path,
                                                                            monkeypatch):
    made = []  # oracle calls made for toy/80/fewshot-random
    next_pair = threading.Event()

    def failing(prompt, meta, params):
        if prompt.startswith("80:"):
            made.append(prompt)
            if prompt == "80:hold":
                # held until a call of toy/160 runs, so every queued call of
                # toy/80 has been taken off the queue past the stop flag by then
                next_pair.wait(timeout=5.0)
            elif prompt == "80:raise":
                raise TransportError("oracle broke", attempts=1)
        else:
            next_pair.set()
        return meta.gold_label

    def tag(n, strategy, call):
        if n == 0:
            item = call.record.item_id
            call.prompt = {test_ids[0]: "80:hold", test_ids[1]: "80:raise"}.get(
                item, f"80:{call.prompt}")

    out = tmp_path / "run"
    prepare(out)
    test_ids = [item.id for item in read_test(out)]
    monkeypatch.setitem(ORACLES, "failing", failing)
    tag_calls(monkeypatch, tag)
    # the second call fails while the first is held and the other 58 are queued
    config = make_config(output=out, sizes=[80, 160], strategies=["fewshot-random"], jobs=2,
                         llm=LlmConfig(endpoint="failing"))
    with pytest.raises(TransportError) as exc:
        run_experiment(config)
    assert str(exc.value) == "1 failed cell(s): toy/80/fewshot-random: oracle broke"
    assert sorted(made) == ["80:hold", "80:raise"]
    assert [p.name for p in (out / "records").glob("*.jsonl")] == [
        record_filename("toy", 160, 0, "fewshot-random")]


def test_run_experiment_requires_prepared_data(tmp_path):
    config = make_config(output=tmp_path / "fresh", sizes=[80], strategies=["base"])
    with pytest.raises(DataError, match="prepare"):
        run_experiment(config)


def test_config_defaults_and_json_view(tmp_path):
    assert tuple(DEFAULT_SIZES) == (100, 200, 300, 400, 500, 1000, 2000, 3000, 4000, 5000)
    out = tmp_path / "run"
    prepare(out)
    run_experiment(RunConfig(datasets=[spec()], output=out, sizes=[80], strategies=["base"]))
    obj = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))["config"]
    assert obj["output"] == str(out)
    assert obj["sizes"] == [80]
    assert obj["datasets"] == [{"name": "toy", "path": "unused.jsonl", "min_size": 0,
                                "task": "text classification"}]
    assert obj["llm"] == {"endpoint": "perfect", "model_id": "default", "max_new_tokens": 5,
                          "timeout": 60.0, "max_retries": 2, "backoff": 0.5,
                          "oracle_params": {}}
    assert set(obj) == {"datasets", "output", "sizes", "seed", "alpha", "k", "strategies",
                        "template", "llm", "test_size", "jobs"}
    assert set(obj["template"]) == {"task_intro", "example_format", "query_format",
                                    "instruction"}
    assert "force" not in obj


@pytest.mark.parametrize("kw", [
    {"datasets": []},
    {"sizes": []},
    {"sizes": [100, 100]},
    {"sizes": [200, 100]},
    {"sizes": [0]},
    {"strategies": []},
    {"strategies": ["base", "base"]},
    {"strategies": ["zero-shot"]},
    {"alpha": 0.0},
    {"alpha": 1.0},
    {"alpha": float("nan")},
    {"k": 0},
    {"jobs": 0},
    {"test_size": 0},
])
def test_run_config_validation(kw):
    with pytest.raises(ValueError):
        make_config(**kw)


@pytest.mark.parametrize("kw", [
    {"name": "bad name"},
    {"name": ""},
    {"name": "a/b"},
    {"min_size": -1},
])
def test_dataset_spec_validation(kw):
    with pytest.raises(ValueError):
        DatasetSpec(name=kw.get("name", "ok"), path="p", min_size=kw.get("min_size", 0))


def test_the_readme_strategy_table_names_every_strategy_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Strategies\n", 1)[1].split("\n## ", 1)[0]
    assert re.findall(r"^\| `([^`]+)` ", section, flags=re.M) == list(pipeline.STRATEGIES)
