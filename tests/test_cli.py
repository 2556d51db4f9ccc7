"""End-to-end tests for the prepare/run/report command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cicle.cli import build_parser, build_run_config, main
from cicle.corpus import file_sha256, write_jsonl
from cicle.errors import TransportError
from cicle.llm_client import LlmConfig
from cicle import pipeline
from cicle.pipeline import record_filename

from conftest import make_items


def write_toy(tmp_path, n=240, overlap=0.75, name="toy"):
    items = make_items(n, n_classes=4, seed=0, overlap=overlap)
    path = tmp_path / f"{name}.jsonl"
    write_jsonl(items, path)
    return path


def base_args(data_path, out, *extra):
    return ["--dataset", f"toy={data_path}", "--output", str(out),
            "--sizes", "80", "--test-size", "60", *extra]


def error_lines(capsys):
    err = capsys.readouterr().err
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_help_lists_shared_flags(capsys):
    assert main(["run", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--config", "--dataset", "--sizes", "--alpha", "--k", "--strategies",
                 "--oracle", "--llm-endpoint", "--embedding-endpoint", "--jobs", "--force"):
        assert flag in out


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_prepare_run_report_happy_path(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"

    assert main(["prepare", *base_args(data, out)]) == 0
    assert "prepared toy: pool=180 test=60 classes=4" in capsys.readouterr().out
    assert (out / "data" / "toy" / "manifest.json").exists()
    assert (out / "data" / "toy" / "pool.jsonl").exists()
    assert (out / "data" / "toy" / "test.jsonl").exists()

    run_args = base_args(data, out, "--strategies", "base,cicle", "--alpha", "0.1")
    assert main(["run", *run_args]) == 0
    assert "run complete: 120 records" in capsys.readouterr().out
    for strategy in ("base", "cicle"):
        assert (out / "records" / record_filename("toy", 80, 0, strategy)).exists()
    assert (out / "run_manifest.json").exists()

    assert main(["report", *run_args]) == 0
    assert "report written:" in capsys.readouterr().out
    report_dir = out / "report"
    assert (report_dir / "report.json").exists()
    assert (report_dir / "cells.csv").exists()
    assert (report_dir / "curve_toy.csv").exists()
    payload = json.loads((report_dir / "report.json").read_text("utf-8"))
    assert "toy/80/cicle" in payload["per_cell"]


def test_prepare_missing_file_is_data_error(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["prepare", *base_args(tmp_path / "absent.jsonl", out)])
    assert rc == 3
    lines = error_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith("error: data:")


def test_unknown_strategy_is_usage_error(tmp_path, capsys):
    data = write_toy(tmp_path)
    rc = main(["run", *base_args(data, tmp_path / "out"), "--strategies", "zero-shot"])
    assert rc == 2
    lines = error_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith("error: usage:")
    assert "zero-shot" in lines[0]


def test_no_datasets_is_usage_error(tmp_path, capsys):
    rc = main(["run", "--output", str(tmp_path / "out")])
    assert rc == 2
    assert "no datasets" in error_lines(capsys)[0]


def test_run_before_prepare_mentions_prepare(tmp_path, capsys):
    data = write_toy(tmp_path)
    rc = main(["run", *base_args(data, tmp_path / "out"), "--strategies", "base"])
    assert rc == 3
    line = error_lines(capsys)[0]
    assert line.startswith("error: data:")
    assert "prepare" in line


def test_report_with_missing_cells_lists_files(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    assert main(["prepare", *base_args(data, out)]) == 0
    capsys.readouterr()
    rc = main(["report", *base_args(data, out), "--strategies", "base,cicle"])
    assert rc == 3
    line = error_lines(capsys)[0]
    assert "missing record files" in line
    assert record_filename("toy", 80, 0, "base") in line
    assert record_filename("toy", 80, 0, "cicle") in line


def test_base_only_run_makes_no_network_calls(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("network call attempted")

    monkeypatch.setattr("urllib.request.urlopen", boom)
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    assert main(["prepare", *base_args(data, out)]) == 0
    assert main(["run", *base_args(data, out), "--strategies", "base"]) == 0


def test_rerun_in_fresh_directory_is_byte_identical(tmp_path):
    data = write_toy(tmp_path)
    args = ["--sizes", "80", "--test-size", "60", "--strategies", "base,cicle",
            "--alpha", "0.1", "--jobs", "3"]
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        assert main(["prepare", "--dataset", f"toy={data}", "--output", str(out), *args]) == 0
        assert main(["run", "--dataset", f"toy={data}", "--output", str(out), *args]) == 0
        assert main(["report", "--dataset", f"toy={data}", "--output", str(out), *args]) == 0
        outputs.append(out)

    first, second = outputs
    record_names = sorted(p.name for p in (first / "records").glob("*.jsonl"))
    assert record_names
    for name in record_names:
        assert (first / "records" / name).read_bytes() == (second / "records" / name).read_bytes()
    report_names = sorted(p.name for p in (first / "report").iterdir())
    for name in report_names:
        assert (first / "report" / name).read_bytes() == (second / "report" / name).read_bytes()


def test_config_file_with_flag_override(tmp_path):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "datasets": [{"name": "toy", "path": str(data)}],
        "output": str(out),
        "sizes": [80],
        "test_size": 60,
        "seed": 5,
        "alpha": 0.2,
        "k": 3,
        "strategies": ["base"],
    }), encoding="utf-8")

    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["run", "--config", str(config_path), "--k", "2"]) == 0

    manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
    assert manifest["config"]["k"] == 2
    assert manifest["config"]["alpha"] == 0.2
    assert manifest["config"]["seed"] == 5
    assert (out / "records" / record_filename("toy", 80, 5, "base")).exists()


def test_unreachable_embedding_endpoint_is_transport_error(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "datasets": [{"name": "toy", "path": str(data)}],
        "output": str(out),
        "sizes": [80],
        "test_size": 60,
        "strategies": ["fewshot-dense"],
        "embedding": {"endpoint": "http://127.0.0.1:9/embed", "max_retries": 0,
                      "backoff": 0.0, "timeout": 1.0},
    }), encoding="utf-8")

    assert main(["prepare", "--config", str(config_path)]) == 0
    capsys.readouterr()
    rc = main(["run", "--config", str(config_path)])
    assert rc == 4
    assert error_lines(capsys)[0].startswith("error: transport:")


def test_min_size_flag_skips_small_sizes(tmp_path):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = ["--dataset", f"toy={data}", "--output", str(out), "--sizes", "80,120",
            "--test-size", "60", "--strategies", "base", "--min-size", "toy=100"]
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    files = sorted(p.name for p in (out / "records").glob("*.jsonl"))
    assert files == [record_filename("toy", 120, 0, "base")]
    assert main(["report", *args]) == 0
    payload = json.loads((out / "report" / "report.json").read_text("utf-8"))
    assert list(payload["per_cell"]) == ["toy/120/base"]


def test_report_skips_the_sizes_run_skipped(tmp_path, caplog):
    data = write_toy(tmp_path, n=360)
    out = tmp_path / "out"
    args = ["--dataset", f"toy={data}", "--output", str(out), "--sizes", "100,1000",
            "--test-size", "60", "--strategies", "base"]
    assert main(["prepare", *args]) == 0  # a 300-item pool
    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        assert main(["run", *args]) == 0
        assert main(["report", *args]) == 0
    skips = [rec.message for rec in caplog.records if "skipping" in rec.message]
    assert skips == ["skipping toy size 1000: pool has only 300 items"] * 2
    cells = (out / "report" / "cells.csv").read_text("utf-8").splitlines()
    assert [line.split(",")[1] for line in cells[1:]] == ["100"]


def test_bad_template_file_is_data_error(tmp_path, capsys):
    data = write_toy(tmp_path)
    template = tmp_path / "template.json"
    template.write_text('{"task_intro": "only {task}"}', encoding="utf-8")
    rc = main(["run", *base_args(data, tmp_path / "out"), "--template", str(template)])
    assert rc == 3
    assert "missing fields" in error_lines(capsys)[0]


def test_oracle_and_endpoint_conflict(tmp_path, capsys):
    data = write_toy(tmp_path)
    rc = main(["run", *base_args(data, tmp_path / "out"),
               "--oracle", "perfect", "--llm-endpoint", "http://example.test/v1"])
    assert rc == 2
    assert "mutually exclusive" in error_lines(capsys)[0]


def test_unknown_oracle_is_usage_error(tmp_path, capsys):
    data = write_toy(tmp_path)
    rc = main(["run", *base_args(data, tmp_path / "out"), "--oracle", "psychic"])
    assert rc == 2
    line = error_lines(capsys)[0]
    assert line.startswith("error: usage:")
    assert "perfect" in line


@pytest.mark.parametrize("argv_extra,needle", [
    (["--sizes", "80,beta"], "--sizes"),
    (["--dataset", "nopath"], "NAME=VALUE"),
    (["--min-size", "ghost=100"], "unknown dataset"),
])
def test_malformed_flag_values(tmp_path, capsys, argv_extra, needle):
    data = write_toy(tmp_path)
    argv = ["run", "--dataset", f"toy={data}", "--output", str(tmp_path / "out"),
            *argv_extra]
    rc = main(argv)
    assert rc == 2
    assert needle in error_lines(capsys)[0]


def test_config_not_json_is_data_error(tmp_path, capsys):
    bad = tmp_path / "config.json"
    bad.write_text("{nope", encoding="utf-8")
    rc = main(["run", "--config", str(bad)])
    assert rc == 3
    assert "not valid JSON" in error_lines(capsys)[0]


@pytest.mark.parametrize("section,key", [
    ("llm", "concurrency_limit"),
    ("embedding", "batchsize"),
    ("embedding", "deterministic"),  # only an llm section may keep the old key
    ("top", "alpah"),
    ("train", "c"),
    ("template", "intro"),
    ("datasets", "fmtt"),
    ("top", "k"),  # a known key with a value of the wrong type
])
def test_config_unknown_key_is_data_error(tmp_path, capsys, section, key):
    config_path = tmp_path / "config.json"
    value = "two" if key == "k" else 4
    dataset = {"name": "toy", "path": str(write_toy(tmp_path))}
    body = {"datasets": [dataset]}
    if section == "top":
        body[key] = value
    elif section == "datasets":
        dataset[key] = value
    elif section == "template":
        body[section] = {"task_intro": "{task}", "example_format": "{text} {label}",
                         "query_format": "{text}", "instruction": "", key: value}
    else:
        endpoint = {"endpoint": "http://127.0.0.1:9/v1"} if section == "embedding" else {}
        body[section] = {**endpoint, key: value}
    config_path.write_text(json.dumps(body), encoding="utf-8")
    rc = main(["run", "--config", str(config_path), "--output", str(tmp_path / "out")])
    assert rc == 3
    lines = error_lines(capsys)
    assert len(lines) == 1 and lines[0].startswith("error: data:") and key in lines[0]


@pytest.mark.parametrize("sections", [
    {"llm": None, "embedding": None},
    {"llm": {}, "embedding": {}},
    {},
], ids=["null", "empty", "absent"])
def test_null_or_empty_sections_take_the_defaults(tmp_path, sections):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"datasets": [{"name": "toy", "path": "toy.jsonl"}],
                                       **sections}), encoding="utf-8")
    config = build_run_config(build_parser().parse_args(["run", "--config", str(config_path)]))
    assert config.llm == LlmConfig() and config.llm.endpoint == "perfect"
    assert config.embedding is None


def test_old_config_files_may_keep_llm_deterministic(tmp_path):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "datasets": [{"name": "toy", "path": str(data)}], "output": str(out),
        "sizes": [80], "test_size": 60, "strategies": ["base"],
        "llm": {"endpoint": "perfect", "deterministic": True},
    }), encoding="utf-8")
    assert main(["prepare", "--config", str(config_path)]) == 0
    assert main(["run", "--config", str(config_path)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text("utf-8"))
    assert "deterministic" not in manifest["config"]["llm"]


def test_changed_frozen_split_is_data_error(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = base_args(data, out, "--strategies", "base")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    with (out / "data" / "toy" / "test.jsonl").open("a", encoding="utf-8") as fh:
        fh.write('{"id": "extra", "text": "one more row", "label": "alpha"}\n')
    capsys.readouterr()
    for command in ("run", "report"):
        assert main([command, *args]) == 3
        lines = error_lines(capsys)
        assert len(lines) == 1 and lines[0].startswith("error: data:")
        assert "test.jsonl" in lines[0] and "sha256" in lines[0]


def test_malformed_record_names_file_and_line(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = base_args(data, out, "--strategies", "base")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    path = out / "records" / record_filename("toy", 80, 0, "base")
    for bad in ("[1, 2]", '{"item_id": "x", "strategy": "base", "gold_label": "g", '
                          '"final_label": 0}'):
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = bad
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["report", *args]) == 3
        [line] = error_lines(capsys)
        assert line.startswith("error: data:") and "toy_80_0_base.jsonl:4:" in line


def prepared_and_run(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = base_args(data, out, "--strategies", "base,cicle")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    capsys.readouterr()
    return out, args, out / "records" / record_filename("toy", 80, 0, "cicle")


def cut_to(path, keep):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(keep(lines)), encoding="utf-8")


def truncate(lines):
    return lines[:-6]


def swap_first_two(lines):
    return lines[1:2] + lines[:1] + lines[2:]


@pytest.mark.parametrize("edit,then,needle", [
    (truncate, None, "does not match the sha256 in run_manifest.json"),
    (truncate, "rerun", None),
    (swap_first_two, "rerun", None),
    (truncate, "rehash", "holds 54 records; the frozen test set has 60"),
    (swap_first_two, "rehash", "not in frozen test order"),
], ids=["truncated", "truncated-then-reused", "reordered-then-reused",
        "truncated-then-rehashed", "reordered-then-rehashed"])
def test_report_rejects_an_edited_record_file(tmp_path, capsys, edit, then, needle):
    out, args, path = prepared_and_run(tmp_path, capsys)
    original = path.read_bytes()
    cut_to(path, edit)
    if then == "rerun":
        # the edited file no longer hashes to its manifest entry: run recomputes it
        assert main(["run", *args]) == 0
        assert path.read_bytes() == original
        assert main(["report", *args]) == 0
        return
    if then == "rehash":
        # the manifest blesses the edit, so only report's content checks catch it
        manifest_path = out / "run_manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["records"][path.name] = file_sha256(path)
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["report", *args]) == 3
    [line] = error_lines(capsys)
    assert line.startswith("error: data:") and path.name in line and needle in line
    assert not (out / "report" / "report.json").exists()


def test_report_rejects_a_file_the_manifest_does_not_list(tmp_path, capsys):
    out, args, path = prepared_and_run(tmp_path, capsys)
    manifest_path = out / "run_manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest["records"][path.name]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    assert main(["report", *args]) == 3
    [line] = error_lines(capsys)
    assert line.startswith("error: data:") and f"{path.name} has no entry" in line
    manifest_path.unlink()
    assert main(["report", *args]) == 3
    [line] = error_lines(capsys)
    assert line.startswith("error: data:") and "run_manifest.json not found" in line


def test_report_rejects_a_file_written_under_another_configuration(tmp_path, capsys):
    out, args, _ = prepared_and_run(tmp_path, capsys)
    assert main(["report", *args, "--alpha", "0.3"]) == 3
    [line] = error_lines(capsys)
    assert line.startswith("error: data:") and "another configuration" in line
    assert record_filename("toy", 80, 0, "base") in line
    assert not (out / "report" / "report.json").exists()


def drop_manifest_entry(out, path, args):
    manifest_path = out / "run_manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    del manifest["records"][path.name]
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")


def edit_bytes(out, path, args):
    cut_to(path, truncate)


def rerun_at_another_alpha(out, path, args):
    assert main(["run", *args, "--alpha", "0.3"]) == 0


@pytest.mark.parametrize("make_stale,reason", [
    (drop_manifest_entry, "has no entry in run_manifest.json"),
    (edit_bytes, "does not match the sha256 in run_manifest.json"),
    (rerun_at_another_alpha, "was written under another configuration"),
], ids=["manifest-entry-deleted", "bytes-edited", "alpha-changed"])
def test_report_rejects_exactly_the_files_run_recomputes(tmp_path, capsys, caplog, make_stale,
                                                         reason):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = base_args(data, out, "--strategies", "cicle")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    path = out / "records" / record_filename("toy", 80, 0, "cicle")
    original = path.read_bytes()
    make_stale(out, path, args)
    capsys.readouterr()
    assert main(["report", *args]) == 3
    assert error_lines(capsys) == [f"error: data: {path.name} {reason}"]
    caplog.clear()
    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        assert main(["run", *args]) == 0
    assert [rec.message for rec in caplog.records] == [
        f"cell file {path.name} {reason}; recomputing it"]
    assert path.read_bytes() == original
    assert main(["report", *args]) == 0


def test_run_with_another_test_size_reuses_the_files(tmp_path, capsys, caplog, monkeypatch):
    # run reads the frozen split, so --test-size only matters to prepare
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = base_args(data, out, "--strategies", "base,cicle")
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    before = {p.name: p.read_bytes() for p in (out / "records").iterdir()}

    def no_writes(records, path):
        raise AssertionError(f"run rewrote {path}")

    monkeypatch.setattr(pipeline, "write_records", no_writes)
    other = [a if a != "60" else "50" for a in args]
    with caplog.at_level("WARNING", logger="cicle.pipeline"):
        assert main(["run", *other]) == 0
    assert not caplog.records
    assert {p.name: p.read_bytes() for p in (out / "records").iterdir()} == before
    assert sorted(before) == [record_filename("toy", 80, 0, s) for s in ("base", "cicle")]
    assert main(["report", *other]) == 0


def test_runs_over_strategy_subsets_add_up_to_one_manifest(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    assert main(["prepare", *base_args(data, out)]) == 0
    for strategy in ("base", "cicle"):
        assert main(["run", *base_args(data, out, "--strategies", strategy)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest["records"]) == ["toy_80_0_base.jsonl", "toy_80_0_cicle.jsonl"]
    assert main(["report", *base_args(data, out, "--strategies", "base,cicle")]) == 0


def test_failed_cell_fails_the_run_after_the_other_cells(tmp_path, capsys):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = ["--dataset", f"toy={data}", "--output", str(out), "--sizes", "2,100",
            "--test-size", "60", "--strategies", "base,cicle"]
    assert main(["prepare", *args]) == 0
    capsys.readouterr()
    assert main(["run", *args]) == 3
    captured = capsys.readouterr()
    assert "run complete" not in captured.out
    [line] = [l for l in captured.err.splitlines() if l.startswith("error:")]
    assert line.startswith("error: data: 1 failed cell(s): toy/2: cell split produced an empty")
    for strategy in ("base", "cicle"):
        assert (out / "records" / record_filename("toy", 100, 0, strategy)).exists()
        assert not (out / "records" / record_filename("toy", 2, 0, strategy)).exists()
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert sorted(manifest["records"]) == ["toy_100_0_base.jsonl", "toy_100_0_cicle.jsonl"]


def test_transport_failure_in_a_cell_exits_4(tmp_path, capsys, monkeypatch):
    real = pipeline.classify_cell

    def flaky(res, strategy, *args, **kwargs):
        if strategy == "cicle":
            raise TransportError("endpoint gone")
        return real(res, strategy, *args, **kwargs)

    data = write_toy(tmp_path)
    out = tmp_path / "out"
    args = ["--dataset", f"toy={data}", "--output", str(out), "--sizes", "2,100",
            "--test-size", "60", "--strategies", "base,cicle"]
    assert main(["prepare", *args]) == 0
    monkeypatch.setattr(pipeline, "classify_cell", flaky)
    capsys.readouterr()
    assert main(["run", *args]) == 4
    [line] = error_lines(capsys)
    assert line.startswith("error: transport: 2 failed cell(s): toy/2: ")
    assert line.endswith("; toy/100/cicle: endpoint gone")
    assert (out / "records" / record_filename("toy", 100, 0, "base")).exists()


def drop_required(name, text):
    # a record file is JSONL: only its first record loses the field
    head, sep, tail = text.partition("\n") if name == "record" else (text, "", "")
    obj = json.loads(head)
    if name == "config":
        del obj["datasets"][0]["path"]
    else:
        del obj[{"frozen-manifest": "labels", "run-manifest": "records", "record": "final_label",
                 "template": "instruction"}[name]]
    return json.dumps(obj) + sep + tail


def sha256_list(name, text):
    return json.dumps({**json.loads(text), "sha256": []})


CORRUPTIONS = {
    "empty": lambda name, text: "",
    "not-json": lambda name, text: "{nope",
    "list": lambda name, text: "[]",
    "null": lambda name, text: "null",
    "missing-field": drop_required,
}
READ_BACK = ("frozen-manifest", "run-manifest", "record", "config", "template")


@pytest.mark.parametrize("name,corruption", [
    *((name, corruption) for name in READ_BACK for corruption in CORRUPTIONS),
    ("frozen-manifest", "sha256-list"),
])
def test_a_corrupt_file_read_back_fails_cleanly_naming_it(tmp_path, capsys, name, corruption):
    data = write_toy(tmp_path)
    out = tmp_path / "out"
    template = tmp_path / "template.json"
    template.write_text(json.dumps({"task_intro": "{task}", "example_format": "{text} {label}",
                                    "query_format": "{text}", "instruction": ""}),
                        encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"datasets": [{"name": "toy", "path": str(data)}],
                                  "output": str(out), "sizes": [80], "test_size": 60,
                                  "strategies": ["base"], "template": str(template)}),
                      encoding="utf-8")
    args = ["--config", str(config)]
    assert main(["prepare", *args]) == 0
    assert main(["run", *args]) == 0
    path = {"frozen-manifest": out / "data" / "toy" / "manifest.json",
            "run-manifest": out / "run_manifest.json",
            "record": out / "records" / record_filename("toy", 80, 0, "base"),
            "config": config, "template": template}[name]
    original = path.read_text(encoding="utf-8")
    corrupt = {**CORRUPTIONS, "sha256-list": sha256_list}[corruption]
    path.write_text(corrupt(name, original), encoding="utf-8")
    capsys.readouterr()
    # a record file that no longer matches its manifest entry is recomputed by run
    commands = ("report",) if name == "record" else ("run", "report")
    for command in commands:
        assert main([command, *args]) == 3
        [line] = error_lines(capsys)
        assert line.startswith("error: data:")
        assert (path.name if name == "record" else str(path)) in line
    if name == "record":
        assert main(["run", *args]) == 0
        assert path.read_text(encoding="utf-8") == original


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_module(module, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("module", ["cicle", "cicle.cli"])
def test_python_dash_m_entry_points(module):
    helped = run_module(module, "--help")
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: cicle")
    assert "prepare" in helped.stdout and "report" in helped.stdout
    unknown = run_module(module, "frobnicate")
    assert unknown.returncode == 2
    assert "invalid choice" in unknown.stderr


def test_csv_dataset_roundtrip(tmp_path, capsys):
    items = make_items(240, n_classes=4, seed=0)
    path = tmp_path / "toy.csv"
    with path.open("w", encoding="utf-8", newline="") as fh:
        import csv

        writer = csv.writer(fh)
        writer.writerow(["text", "label"])
        for item in items:
            writer.writerow([item.text, item.label])
    out = tmp_path / "out"
    assert main(["prepare", "--dataset", f"toy={path}", "--output", str(out),
                 "--sizes", "80", "--test-size", "60"]) == 0
    assert "prepared toy: pool=180 test=60 classes=4" in capsys.readouterr().out
